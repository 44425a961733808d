"""Shared fixtures and randomized-instance generators for the test suite."""

import cmath
import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from birange import nrcore
from birange.criteria import (
    Ellipse,
    EllipsePairParams,
    Reason,
    Verdict,
    _b_normal,
    _four_p_squared,
    _normalize_tilt,
    _positive_verdict,
    golden_min,
    solve_b,
)
from birange.forms import (
    TOL,
    BlockForm,
    Frame,
    ReciprocalForm,
    SpecialForm,
    direction_block,
    normalize_block,
)
from birange.linalg import CMatrix, eig2, eye, sqrt_principal


def fig_left_special() -> SpecialForm:
    return SpecialForm(u=0.1, v=0.0, b1=(3 - 1j) / 5, b2=(2 - 1j) / 5, b=1.0)


def fig_right_special() -> SpecialForm:
    return SpecialForm(u=0.0, v=0.1, b1=(3 + 4j) / 10, b2=(4 + 3j) / 10, b=1.0)


def general_example_matrix() -> CMatrix:
    return CMatrix(
        (
            (4, 0, 4 - 8j, 0),
            (0, 4, 5 - 5j, 4 - 12j),
            (-2 + 6j, 5 - 5j, -4, 0),
            (0, 2 + 6j, 0, -4),
        )
    )


def general_example_block() -> BlockForm:
    return BlockForm(
        alpha=4 + 0j,
        C=CMatrix(((4 - 8j, 0), (5 - 5j, 4 - 12j))),
        D=CMatrix(((-2 + 6j, 5 - 5j), (0, 2 + 6j))),
    )


def reciprocal_two_ellipse() -> ReciprocalForm:
    a = math.sqrt(3.0 + 2.0 * math.sqrt(2.0))
    return ReciprocalForm(a1=a, a2=1.0, a3=a)


def reciprocal_tridiagonal(rec: ReciprocalForm) -> CMatrix:
    """The tridiagonal matrix itself, before the basis reordering of
    :meth:`ReciprocalForm.to_block`."""
    a1, a2, a3 = rec.a1, rec.a2, rec.a3
    return CMatrix(
        (
            (0j, complex(a1), 0j, 0j),
            (complex(1 / a1), 0j, complex(a2), 0j),
            (0j, complex(1 / a2), 0j, complex(a3)),
            (0j, 0j, complex(1 / a3), 0j),
        )
    )


def shift_free_matrix(bf: BlockForm) -> CMatrix:
    """The 4x4 matrix of ``bf`` less its trace shift (diagonal blocks
    +-alpha), as ``verify_checks`` builds it."""
    return replace(bf, shift=0j).assemble()


def frame_similarity(frame: Frame) -> CMatrix:
    """diag(Q, WQ) from the frame's unitaries (Q, W): U* (f A) U is the
    reduced matrix, with f = exp(-i theta) / |scale| and A the shift-free
    input."""
    q, w = frame.unitaries
    wq = w @ q
    z = (0j, 0j)
    return CMatrix((q.rows[0] + z, q.rows[1] + z, z + wq.rows[0], z + wq.rows[1]))


def random_cmat(rng, n: int = 2, scale: float = 1.0) -> CMatrix:
    return CMatrix(
        scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    )


def random_unitary2(rng) -> CMatrix:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return CMatrix(q)


def random_block(rng, scale: float = 1.0) -> BlockForm:
    return BlockForm(
        alpha=complex(rng.normal(), rng.normal()) * scale,
        C=random_cmat(rng, 2, scale),
        D=random_cmat(rng, 2, scale),
    )


def random_hermitian4(rng, scale: float = 1.0) -> CMatrix:
    m = random_cmat(rng, 4, scale)
    return 0.5 * (m + m.H)


def _nonzero(rng, floor: float = 0.2) -> float:
    x = float(rng.normal())
    sign = 1.0 if x >= 0 else -1.0
    return sign * (abs(x) + floor)


def random_special(rng, v_zero: bool = False, u_zero: bool = False) -> SpecialForm:
    if v_zero:
        u, v = float(rng.normal()), 0.0
    elif u_zero:
        u, v = 0.0, _nonzero(rng)
    else:
        u, v = float(rng.normal()), float(rng.normal())
    return SpecialForm(
        u=u,
        v=v,
        b1=complex(rng.normal(), rng.normal()),
        b2=complex(rng.normal(), rng.normal()),
        b=abs(float(rng.normal())) + 0.2,
    )


def bi_special_real_case_i(rng) -> SpecialForm:
    """Real diagonal parameter, equal diagonal imaginary parts."""
    for _ in range(200):
        u = _nonzero(rng)
        xi1, xi2 = (float(x) for x in rng.normal(size=2))
        eta = float(rng.normal())
        b = abs(xi1 * xi1 - xi2 * xi2) / (2.0 * abs(u))
        if 0.05 < b < 20.0:
            return SpecialForm(
                u=u, v=0.0, b1=complex(xi1, eta), b2=complex(xi2, eta), b=b
            )
    raise RuntimeError("generator failed")


def bi_special_real_case_ii(rng) -> SpecialForm:
    """Zero diagonal with purely imaginary entries; any coupling works."""
    eta1, eta2 = (float(x) for x in rng.normal(size=2))
    return SpecialForm(
        u=0.0, v=0.0,
        b1=complex(0.0, eta1), b2=complex(0.0, eta2),
        b=abs(float(rng.normal())) + 0.2,
    )


def bi_special_zero_diagonal_conjugate(rng) -> SpecialForm:
    """Zero diagonal with b2 = -conj(b1); any coupling works, and the matrix
    is unitarily reducible like real case (ii)'s."""
    b1 = complex(*rng.normal(size=2))
    return SpecialForm(
        u=0.0, v=0.0, b1=b1, b2=-b1.conjugate(),
        b=abs(float(rng.normal())) + 0.2,
    )


def bi_special_imag(rng) -> SpecialForm:
    """Purely imaginary diagonal parameter with matched entry moduli."""
    for _ in range(200):
        v = _nonzero(rng)
        rho = abs(float(rng.normal())) + 0.5
        eta1, eta2 = (float(x) for x in rng.uniform(-rho, rho, size=2))
        b = abs(eta1 - eta2) / abs(v)
        if not (0.05 < b < 20.0):
            continue
        s1 = 1.0 if rng.random() < 0.5 else -1.0
        s2 = 1.0 if rng.random() < 0.5 else -1.0
        xi1 = s1 * math.sqrt(max(rho * rho - eta1 * eta1, 0.0))
        xi2 = s2 * math.sqrt(max(rho * rho - eta2 * eta2, 0.0))
        return SpecialForm(
            u=0.0, v=v, b1=complex(xi1, eta1), b2=complex(xi2, eta2), b=b
        )
    raise RuntimeError("generator failed")


def bi_special_general(rng) -> SpecialForm:
    """Fully complex diagonal parameter; the entry layout kills Im T for
    every coupling, and the unique coupling root does the rest."""
    for _ in range(400):
        u = _nonzero(rng)
        v = _nonzero(rng)
        half = u / v
        d = float(rng.normal())
        xi = abs(float(rng.normal())) + 0.1
        b1 = complex(xi, half + d)
        b2 = complex(-xi, half - d)
        b = solve_b(u, v, b1, b2)
        if b is not None and 0.05 < b < 20.0:
            return SpecialForm(u=u, v=v, b1=b1, b2=b2, b=b)
    raise RuntimeError("generator failed")


_BI_FAMILIES = (
    bi_special_real_case_i,
    bi_special_real_case_ii,
    bi_special_imag,
    bi_special_general,
)


def bi_special_any(rng) -> SpecialForm:
    return _BI_FAMILIES[int(rng.integers(0, len(_BI_FAMILIES)))](rng)


def realize(rho: float, tau: float, delta: float) -> SpecialForm:
    """A real-case-(i) special form whose ellipse pair has the prescribed
    shape: semi-axes a and rho a, major axis at tilt tau against the
    offset between the centers, which lie at +-delta a on the real axis.

    In the special form's own plane, real case (i) (v = 0, eta1 = eta2)
    has z - x = 1 in ``ellipse_pair_params``, which fixes the size a.  Then
    x + iy = r e^{2i tau}, r = (a^2 - (rho a)^2) / 2, gives eta1 = eta2 = y,
    and the coupling is b = 2p for p = delta a.  The formula for x leaves
    xi1^2 + xi2^2 + 2u^2 = K = 4x - 2y^2 + 2 - 2p^2, and T = 0 leaves
    xi1^2 - xi2^2 = 4up.  The shape is feasible iff K > 0; u is taken at
    half its range (0, (-4p + sqrt(16p^2 + 8K)) / 4].  Raises ValueError
    when infeasible.
    """
    c2, s2 = math.cos(2.0 * tau), math.sin(2.0 * tau)
    a2 = 2.0 / ((1.0 - c2) + rho * rho * (1.0 + c2))
    r = 0.5 * a2 * (1.0 - rho * rho)
    x, y = r * c2, r * s2
    p = delta * math.sqrt(a2)
    k = 4.0 * x - 2.0 * y * y + 2.0 - 2.0 * p * p
    if not k > 0.0:
        raise ValueError(f"shape (rho, tau, delta) = ({rho}, {tau}, {delta}) "
                         "is outside real case (i)")
    u = 0.125 * (-4.0 * p + math.sqrt(16.0 * p * p + 8.0 * k))
    xi1 = math.sqrt(0.5 * (k - 2.0 * u * u + 4.0 * u * p))
    xi2 = math.sqrt(0.5 * (k - 2.0 * u * u - 4.0 * u * p))
    return SpecialForm(u=u, v=0.0, b1=complex(xi1, y), b2=complex(xi2, y), b=2.0 * p)


# Shapes (rho, tau) of ``realize`` whose positives have a short center
# offset at small delta: b / scale is about delta, far above the coupling
# gate's TOL.
SHORT_OFFSET_SHAPES = ((0.5, 0.3), (0.9, -0.7), (0.2, 1.2), (1.0, 0.0))


def short_offset_special(rng, delta: float = 1e-5) -> SpecialForm:
    """``realize`` at one of ``SHORT_OFFSET_SHAPES``, drawn by ``rng``."""
    rho, tau = SHORT_OFFSET_SHAPES[int(rng.integers(0, len(SHORT_OFFSET_SHAPES)))]
    return realize(rho, tau, delta)


def two_direction_block(rng) -> BlockForm:
    """A block form with two scalar-unitary directions mod pi, one of them
    0: V = sqrt(mu) U, D = P V^{-1} for a normal P whose eigenvalue gap is
    not real, and C = D* + V, so that C - D* = V."""
    mu = math.exp(rng.uniform(-1.0, 1.0))
    v = math.sqrt(mu) * random_unitary2(rng)
    mean = complex(rng.normal(), rng.normal())
    gap = cmath.rect(math.exp(rng.uniform(-0.7, 0.7)), rng.uniform(0.2, math.pi - 0.2))
    w = random_unitary2(rng)
    p = w @ CMatrix(((mean + gap / 2, 0), (0, mean - gap / 2))) @ w.H
    d = (1.0 / mu) * (p @ v.H)
    alpha = complex(rng.normal(), rng.normal())
    return BlockForm(alpha=alpha, C=d.H + v, D=d)


def zero_multiple_band_block(rng) -> BlockForm:
    """C = D* + sqrt(mu) U with mu about 0.45 to 1.1 times TOL tr H, around
    the reduction's zero-multiple cut: M = C - D* is scalar-unitary at
    theta = 0 with a vanishing multiple.  D is Gaussian or near-nilpotent."""
    d = random_cmat(rng)
    if rng.uniform() < 0.5:
        d = CMatrix([[1e-3 * d[0, 0], d[0, 1]], [1e-3 * d[1, 0], 1e-3 * d[1, 1]]])
    tr_h = 2.0 * d.frobenius() ** 2
    mu = rng.uniform(0.45, 1.1) * TOL * tr_h
    return BlockForm(alpha=complex(*rng.normal(size=2)),
                     C=d.H + math.sqrt(mu) * random_unitary2(rng), D=d)


def disguise(rng, form: SpecialForm | BlockForm, rotate: bool = True,
             scale: bool = True, shift: bool = True,
             theta0: float | None = None) -> tuple[BlockForm, float]:
    """Hide a special form, or a block form without shift, behind rotation,
    scaling, shift and block unitaries; returns the disguised block form
    and the rotation used.  A given ``theta0`` is the rotation, instead of
    a random one."""
    bf = form if isinstance(form, BlockForm) else form.to_block()
    u1 = random_unitary2(rng)
    u2 = random_unitary2(rng)
    if theta0 is None:
        theta0 = float(rng.uniform(0.0, math.pi)) if rotate else 0.0
    t = math.exp(float(rng.uniform(-0.7, 0.7))) if scale else 1.0
    c = complex(rng.normal(), rng.normal()) if shift else 0j
    w = t * cmath.exp(1j * theta0)
    alpha = w * bf.alpha
    c_new = w * (u1.H @ bf.C @ u2)
    d_new = w * (u2.H @ bf.D @ u1)
    return normalize_block(alpha + c, -alpha + c, c_new, d_new), theta0


def transformed(sf, t, c, rotation=0.0, u1=None, u2=None):
    """The block form of t e^{i rotation} (U-similar copy of sf) + c."""
    bf = sf.to_block()
    cm, dm = bf.C, bf.D
    if u1 is not None:
        cm, dm = u1.H @ cm @ u2, u2.H @ dm @ u1
    w = t * cmath.exp(1j * rotation)
    return normalize_block(w * sf.alpha + c, -w * sf.alpha + c, w * cm, w * dm)


def load_bench_module(name: str):
    """Import ``bench/<name>.py`` read-only: no bytecode is written next to
    it, so loading it leaves the benchmark's directory as it was."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# Forged verdicts: the audit's strength is the smallest planted error it
# catches (ROADMAP item 15).

ELLIPSE_FORGERIES = ("center", "semi_axis", "tilt")


def verdict_diameter(verdict: Verdict) -> float:
    """Diagonal of the bounding box of the verdict's two ellipses; for a
    true verdict the range's ``AuditReport.diameter``, to roundoff."""
    xs, ys = [], []
    for e in verdict.ellipses:
        c, s = math.cos(e.tilt), math.sin(e.tilt)
        half_x = math.hypot(e.semi_major * c, e.semi_minor * s)
        half_y = math.hypot(e.semi_major * s, e.semi_minor * c)
        xs += [e.center.real - half_x, e.center.real + half_x]
        ys += [e.center.imag - half_y, e.center.imag + half_y]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def forge_verdict(verdict: Verdict, kind: str, delta: float = 0.0) -> Verdict:
    """``verdict`` with one planted error of geometric size ``delta`` times
    :func:`verdict_diameter`.

    The ellipse kinds change the first ellipse: ``"center"`` moves its
    center that far away from the second one's, ``"semi_axis"`` lengthens
    its semi-major axis by as much, and ``"tilt"`` rotates it by
    delta * diameter / (a - b) radians, a and b its semi-axes: the support
    function's largest rate of change under rotation is a - b, so its
    largest change is delta * diameter to first order.  ``"negative"`` turns
    a positive verdict into NotBiElliptical with reason TNonzero and no
    reduced form, like a true one; ``"reason"`` gives a negative verdict
    the next reason.  Both ignore ``delta``.
    """
    if kind == "reason":
        if verdict.bielliptical:
            raise ValueError("a forged reason needs a negative verdict")
        reasons = list(Reason)
        nxt = reasons[(reasons.index(verdict.reason) + 1) % len(reasons)]
        return replace(verdict, reason=nxt)
    if not verdict.bielliptical or verdict.ellipses is None:
        raise ValueError(f"a forged {kind!r} needs a positive verdict with ellipses")
    if kind == "negative":
        diagnostics = {k: v for k, v in verdict.diagnostics.items() if k != "reduced_form"}
        return Verdict(False, Reason.T_NONZERO, None, diagnostics)
    e1, e2 = verdict.ellipses
    size = delta * verdict_diameter(verdict)
    if kind == "center":
        offset = e1.center - e2.center
        away = offset / abs(offset) if offset else 1.0
        e1 = replace(e1, center=e1.center + size * away)
    elif kind == "semi_axis":
        e1 = replace(e1, semi_major=e1.semi_major + size)
    elif kind == "tilt":
        spread = e1.semi_major - e1.semi_minor
        if size > spread * math.pi / 4:
            raise ValueError(f"an ellipse this round has no tilt error of size {size:g}")
        e1 = replace(e1, tilt=e1.tilt + size / spread)
    else:
        raise ValueError(f"unknown forgery {kind!r}")
    return replace(verdict, ellipses=(e1, e2))


# Reference computations the tests check the package against.


def inner(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """Inner product <x, y> = sum x_i * conj(y_i)."""
    return sum(a * b.conjugate() for a, b in zip(x, y))


def vec_norm(x: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in x))


def matvec(m: CMatrix, x) -> tuple[complex, ...]:
    return tuple(sum(m[i, j] * x[j] for j in range(m.n)) for i in range(m.n))


def char_poly4(m: CMatrix) -> tuple[complex, complex, complex, complex, complex]:
    """Coefficients (1, c3, c2, c1, c0) of det(lam*I - M) for a 4x4 matrix.

    Computed by the Faddeev-LeVerrier recursion, which needs only matrix
    products and traces.
    """
    if m.n != 4:
        raise ValueError("char_poly4 expects a 4x4 matrix")
    ident = eye(4)
    b1 = m
    a1 = -b1.trace()
    b2 = m @ (b1 + a1 * ident)
    a2 = -b2.trace() / 2
    b3 = m @ (b2 + a2 * ident)
    a3 = -b3.trace() / 3
    b4 = m @ (b3 + a3 * ident)
    a4 = -b4.trace() / 4
    return (1 + 0j, a1, a2, a3, a4)


def tangent_envelope_points(
    params: EllipsePairParams, n: int = 64, delta: float = 1e-5
) -> list[complex]:
    """Boundary points of the +p ellipse from its tangent-line family.

    Each point is the intersection of the tangent lines at theta - delta and
    theta + delta; an oracle for the closed-form geometry that never touches
    the axis/tilt formulas.
    """
    p, x, y, z = params.p, params.x, params.y, params.z

    def g(theta: float) -> float:
        rad = z - x * math.cos(2 * theta) - y * math.sin(2 * theta)
        return -p * math.sin(theta) + math.sqrt(max(rad, 0.0))

    pts = []
    for k in range(n):
        th = 2.0 * math.pi * k / n
        t1, t2 = th - delta, th + delta
        g1, g2 = g(t1), g(t2)
        det = math.sin(t2 - t1)
        px = (g1 * math.cos(t2) - g2 * math.cos(t1)) / det
        py = (g1 * math.sin(t2) - g2 * math.sin(t1)) / det
        pts.append(complex(px, py))
    return pts


def ellipse_support(e: Ellipse, theta: float) -> float:
    """Max of Re(e^{-i theta} w) over the ellipse: the scalar reference for
    ``verify._support_values``."""
    psi = e.tilt - theta
    radial = math.hypot(e.semi_major * math.cos(psi), e.semi_minor * math.sin(psi))
    return (cmath.exp(-1j * theta) * e.center).real + radial


def fit_conic_ellipse(points) -> Ellipse:
    """Least-squares conic through the points, interpreted as an ellipse."""
    pts = np.asarray(points, dtype=complex)
    xs, ys = pts.real, pts.imag
    design = np.column_stack(
        [xs * xs, xs * ys, ys * ys, xs, ys, np.ones_like(xs)]
    )
    _, _, vt = np.linalg.svd(design, full_matrices=True)
    a, b, c, d, e, f = vt[-1]
    quad = np.array([[a, b / 2.0], [b / 2.0, c]])
    center = np.linalg.solve(quad, -0.5 * np.array([d, e]))
    x0, y0 = float(center[0]), float(center[1])
    f_c = a * x0 * x0 + b * x0 * y0 + c * y0 * y0 + d * x0 + e * y0 + f
    w, rot = np.linalg.eigh(quad)
    ratios = -f_c / w
    if np.any(ratios <= 0):
        raise ValueError("fitted conic is not an ellipse")
    lengths = np.sqrt(ratios)
    major_idx = int(np.argmax(lengths))
    minor_idx = 1 - major_idx
    tilt = math.atan2(float(rot[1, major_idx]), float(rot[0, major_idx]))
    return Ellipse(
        center=complex(x0, y0),
        semi_major=float(lengths[major_idx]),
        semi_minor=float(lengths[minor_idx]),
        tilt=_normalize_tilt(tilt),
    )


def imag_part_at(a: np.ndarray, theta) -> np.ndarray:
    """Reference for ``nrcore._pencil`` at the row (-sin(theta),
    cos(theta)): Im(e^{-i theta} A) = (e A - conj(e) A*) / 2i with
    e = e^{-i theta}, elementwise in ``theta``."""
    e = np.exp(-1j * theta)
    return (e * a - np.conj(e) * a.conj().T) / 2j


def golden_flat_portions(boundary: nrcore.Boundary) -> list[nrcore.FlatPortion]:
    """Reference flat-portion finder: one scalar golden-section search per
    local minimum of the sampled gap, on the LAPACK ``eigvalsh`` gap of
    Re(e^{-i theta} M0) over one grid step either side of the sample, M0
    being the shift-free ``boundary.matrix``.

    The acceptance rule is :func:`nrcore.flat_portions`' (gap gate, duplicate
    distance, length cutoff, all relative to the oracle scale ||M0||_F); the
    segment's endpoints come from a fresh eigensolve at the refined
    direction, moved by ``boundary.origin``.
    """
    a = boundary.matrix
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return []

    def re_part(theta):
        e = np.exp(-1j * theta)
        return 0.5 * (e * a + np.conj(e) * a.conj().T)

    def gap(theta):
        w = np.linalg.eigvalsh(re_part(theta))
        return float(w[3] - w[2])

    gaps = boundary.gap
    step = 2.0 * math.pi / len(gaps)
    candidates = np.flatnonzero((gaps <= np.roll(gaps, 1)) & (gaps <= np.roll(gaps, -1)))
    found = []
    used: list[float] = []
    for k in candidates:
        theta0 = float(boundary.theta[k])
        theta = golden_min(gap, theta0 - step, theta0 + step)
        if gap(theta) > nrcore.FLAT_GAP_TOL * scale:
            continue
        if any(abs((theta - t + math.pi) % (2 * math.pi) - math.pi) < 0.75 * step
               for t in used):
            continue
        _, v = np.linalg.eigh(re_part(theta))
        basis = v[:, 2:4]
        comp = basis.conj().T @ imag_part_at(a, theta) @ basis
        _, y = np.linalg.eigh(0.5 * (comp + comp.conj().T))
        hi, lo = (complex(np.vdot(x, a @ x)) for x in (basis @ y[:, 1], basis @ y[:, 0]))
        length = abs(hi - lo)
        if length <= nrcore._FLAT_MIN_LENGTH_REL * scale:
            continue
        used.append(theta)
        direction = (hi - lo) / length
        if direction.imag < 0 or (direction.imag == 0 and direction.real < 0):
            direction = -direction
        ends = (hi + boundary.origin, lo + boundary.origin)
        found.append(nrcore.FlatPortion(direction, ends, length, theta % (2 * math.pi)))
    found.sort(key=lambda f: f.support_theta)
    return found


class ReferenceArithmetic:
    """Reference for ``CMatrix``'s arithmetic: the operators as they were
    before their results were trusted, each result going through the
    validating constructor and every product entry through ``sum``.  Only
    for operands of equal size: ``+`` and ``-`` here truncate to the smaller
    one."""

    @staticmethod
    def add(x: CMatrix, y: CMatrix) -> CMatrix:
        return CMatrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(x.rows, y.rows)
        )

    @staticmethod
    def sub(x: CMatrix, y: CMatrix) -> CMatrix:
        return CMatrix(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(x.rows, y.rows)
        )

    @staticmethod
    def neg(x: CMatrix) -> CMatrix:
        return CMatrix(tuple(-a for a in row) for row in x.rows)

    @staticmethod
    def mul(x: CMatrix, scalar: complex) -> CMatrix:
        s = complex(scalar)
        return CMatrix(tuple(a * s for a in row) for row in x.rows)

    @staticmethod
    def matmul(x: CMatrix, y: CMatrix) -> CMatrix:
        n = x.n
        a, b = x.rows, y.rows
        return CMatrix(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @staticmethod
    def adjoint(x: CMatrix) -> CMatrix:
        n = x.n
        return CMatrix(
            tuple(x.rows[j][i].conjugate() for j in range(n)) for i in range(n)
        )


def kron_commutant_system(a: np.ndarray) -> np.ndarray:
    """Reference for ``verify._commutant_system``: the commutation
    constraints XA = AX and XA* = A*X stacked from ``np.kron``."""
    ident = np.eye(4, dtype=complex)
    top = np.kron(ident, a) - np.kron(a.T, ident)
    bot = np.kron(ident, a.conj().T) - np.kron(a.conj(), ident)
    return np.vstack([top, bot])


def loop_factorization_residual(
    bf: BlockForm, params: EllipsePairParams, grid: int = 64
) -> tuple[float, float, float]:
    """Reference for ``verify.factorization_residual``: (total, linear_max,
    quadratic_max) from one scalar evaluation per grid direction, with the
    generating polynomial's coefficients read off ``math`` sines and cosines."""
    gp = nrcore.generating_poly(bf)
    p, x, y, z = params.p, params.x, params.y, params.z
    norm2 = bf.scale() ** 2
    norm4 = norm2 * norm2
    worst_lin = worst_quad = worst_total = 0.0
    for k in range(grid):
        t = 2.0 * math.pi * k / grid
        c2, s2t, c4, s4 = (math.cos(2 * t), math.sin(2 * t),
                           math.cos(4 * t), math.sin(4 * t))
        xi1 = gp.xi1_const + gp.xi1_cos2 * c2 + gp.xi1_sin2 * s2t
        xi2 = (gp.xi2_const_x16 + gp.xi2_cos2_x16 * c2 + gp.xi2_sin2_x16 * s2t
               + gp.xi2_cos4_x16 * c4 + gp.xi2_sin4_x16 * s4) / 16.0
        s2 = (p * math.sin(t)) ** 2
        omega = x * c2 + y * s2t - z
        lin = abs(2.0 * (s2 - omega) - xi1)
        quad = abs((s2 + omega) ** 2 - xi2)
        worst_lin = max(worst_lin, lin)
        worst_quad = max(worst_quad, quad)
        worst_total = max(worst_total, lin / norm2 + quad / norm4)
    return worst_total, worst_lin / norm2, worst_quad / norm4


def scalar_unitary_deviation(bf: BlockForm, theta: float) -> float:
    """Reference for ``find_theta``'s deviation: the traceless part of M*M
    over its trace, M = direction_block(bf, theta)."""
    m = direction_block(bf, theta)
    g = m.H @ m
    return (g - (g.trace() / 2) * eye(2)).frobenius() / g.trace().real


def product_normality_defect(bf: BlockForm, theta: float) -> float:
    """||PP* - P*P|| / ||P||^2 for the product P = direction_block(bf, theta) D."""
    p = direction_block(bf, theta) @ bf.D
    return (p @ p.H - p.H @ p).frobenius() / p.frobenius() ** 2


# The paper's "especially simple form" for real or purely imaginary
# alpha - beta, a corollary of T = 0: reference deciders that
# ``check_special`` must agree with.  Their linear entry tests read their
# own tolerance, so they agree with T = 0 only away from its band.
_EQ_TOL = 1e-7


class NotRealAlphaError(ValueError):
    """check_real requires a real diagonal parameter."""


class NotImagAlphaError(ValueError):
    """check_imag requires a purely imaginary, nonzero diagonal parameter."""


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
    case_ii = max(abs(sf.u), abs(sf.v), abs(sf.xi1), abs(sf.xi2)) <= eq_tol
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


def herm_eig2(m: CMatrix) -> tuple[float, float]:
    """Eigenvalues (ascending) of a 2x2 Hermitian matrix, closed form."""
    mean = 0.5 * (m[0, 0].real + m[1, 1].real)
    half = 0.5 * (m[0, 0].real - m[1, 1].real)
    r = math.hypot(half, abs(m[0, 1]))
    return mean - r, mean + r


def _pair_residual(
    sig1: complex, sig2: complex, weight: float, rhs: float, scale_k: float
) -> tuple[float, complex]:
    """Best of sigma1 +- sigma2: the smallest |weight c^2 - rhs| / scale_k
    over c = sigma1 + sigma2 and sigma1 - sigma2, and the c attaining it."""
    return min(
        ((abs(weight * c * c - rhs) / scale_k, c) for c in (sig1 + sig2, sig1 - sig2)),
        key=lambda res_c: res_c[0],
    )


# The determinant identity at the reduction direction theta, a second
# implementation of the general criterion, which ``check_general`` decides
# by T = 0 on the reduced form: a reference oracle that must agree with it
# away from the band around real case (ii).


@dataclass(frozen=True)
class DeterminantIdentity:
    """Both sides of ``4 sqrt(det Im(e^{-i theta}A)) c^2 = (s1 - s2)^2`` at
    c = ``sigma_sum``, the sigma pair combination with the smaller
    ``residual`` (their difference over scale^4)."""

    sqrt_det: float
    s_diff: float
    sigma_sum: complex
    residual: float

    @property
    def lhs(self) -> complex:
        return 4.0 * self.sqrt_det * self.sigma_sum * self.sigma_sum

    @property
    def rhs(self) -> float:
        return self.s_diff * self.s_diff


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


def determinant_identity(bf: BlockForm, theta: float) -> DeterminantIdentity:
    """The determinant identity at ``theta``, from 2x2 closed forms.

    Im(e^{-i theta}A) has eigenvalues +-lambda_j, so
    sqrt(det Im(e^{-i theta}A)) = lambda1 lambda2.  Raises ValueError when
    the eigenvalues of Im(e^{-2i theta} A^2) do not pair up within
    ``TOL * scale**2``, where the identity fails.
    """
    scale = bf.scale()
    lam1, lam2 = nrcore.pencil_eigs(bf, theta)
    sqrt_det = lam1 * lam2
    s_lo, s_hi = _paired_eigenvalues(_im_square_eigenvalues(bf, theta), TOL * scale**2)
    s_diff = s_hi - s_lo
    z1, z2 = eig2(bf.Z)
    e2 = cmath.exp(-2j * theta)
    sig1 = sqrt_principal(e2 * (z1 + bf.alpha * bf.alpha))
    sig2 = sqrt_principal(e2 * (z2 + bf.alpha * bf.alpha))
    residual, combo = _pair_residual(sig1, sig2, 4.0 * sqrt_det, s_diff * s_diff, scale**4)
    return DeterminantIdentity(sqrt_det, s_diff, combo, residual)


# Two more evaluations of the special-case criterion, which ``check_special``
# evaluates once, entrywise: reference oracles for T = 0.


def trace_level_T(sf: SpecialForm) -> complex:
    """T from the trace and determinant of Z and the squared diagonal
    parameter, a quartic in the half-spread p."""
    p2 = _four_p_squared(sf) / 4.0
    zmat = sf.to_block().Z
    tr_z = zmat.trace()
    det_z = zmat.det()
    a2 = sf.alpha * sf.alpha
    return (
        16.0 * p2 * p2
        - (8.0 * tr_z + 16.0 * a2) * p2
        + tr_z * tr_z
        - 4.0 * det_z
    )


def _beta_values(sf: SpecialForm) -> tuple[float, float]:
    bmat = sf.B
    imb = (1 / 2j) * (bmat - bmat.H)
    return herm_eig2(imb)


def spread_residual(sf: SpecialForm) -> tuple[float, complex]:
    """Residual of the pre-squared criterion (1+v^2)(sigma1 +- sigma2)^2 =
    (beta1 - beta2)^2, a quadratic identity, at the best sign combination,
    and the combination sigma1 +- sigma2 attaining it."""
    spec = nrcore.spectrum(sf.to_block())
    beta1, beta2 = _beta_values(sf)
    return _pair_residual(
        spec.sigma1, spec.sigma2, 1.0 + sf.v * sf.v, (beta1 - beta2) ** 2,
        sf.scale() ** 2,
    )
