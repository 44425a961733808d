"""Shared fixtures and randomized-instance generators for the test suite."""

import cmath
import importlib.util
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from birange.criteria import (
    Ellipse,
    EllipsePairParams,
    _normalize_tilt,
    solve_b,
)
from birange.forms import BlockForm, ReciprocalForm, SpecialForm, normalize_block
from birange.linalg import CMatrix, eye


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


def disguise(rng, sf: SpecialForm, rotate: bool = True, scale: bool = True,
             shift: bool = True) -> tuple[BlockForm, float]:
    """Hide a special form behind rotation, scaling, shift and block
    unitaries; returns the disguised block form and the rotation used."""
    bf = sf.to_block()
    u1 = random_unitary2(rng)
    u2 = random_unitary2(rng)
    theta0 = float(rng.uniform(0.0, math.pi)) if rotate else 0.0
    t = math.exp(float(rng.uniform(-0.7, 0.7))) if scale else 1.0
    c = complex(rng.normal(), rng.normal()) if shift else 0j
    w = t * cmath.exp(1j * theta0)
    alpha = w * sf.alpha
    c_new = w * (u1.H @ bf.C @ u2)
    d_new = w * (u2.H @ bf.D @ u1)
    return normalize_block(alpha + c, -alpha + c, c_new, d_new), theta0


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
