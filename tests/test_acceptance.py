"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assertion identifies the criterion and the quantity
that missed its tolerance.
"""

import cmath
import math
import time

import numpy as np
import pytest
import scipy.optimize

from birange.criteria import (
    Ellipse,
    Reason,
    check_general,
    check_imag,
    check_real,
    check_special,
    criterion_T,
    solve_b,
)
from birange.forms import BlockForm, SpecialForm, from_reciprocal
from birange.nrcore import boundary_support, flat_portions, spectrum
from birange.verify import commutant_dim, compare_boundaries, hull_boundary
from helpers import (
    bi_special_any,
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    disguise,
    fig_left_special,
    fig_right_special,
    general_example_block,
    random_cmat,
    random_special,
    reciprocal_two_ellipse,
)

TOL_CRITERION = 1e-9


def _diameter(points):
    xs = np.asarray(points)
    return math.hypot(
        float(xs.real.max() - xs.real.min()), float(xs.imag.max() - xs.imag.min())
    )


def _hull_distance(verdict, matrix, n=2048):
    samples = boundary_support(matrix, n)
    hull = hull_boundary(*verdict.ellipses, n)
    cmp = compare_boundaries(hull, samples)
    return cmp.hausdorff, _diameter([s.point for s in samples])


def test_criterion_1_worked_example():
    bf = general_example_block()
    check_general(bf)  # warm caches so the timed run measures the check
    bf = general_example_block()
    t0 = time.perf_counter()
    verdict = check_general(bf)
    elapsed = time.perf_counter() - t0

    assert verdict.bielliptical
    d = verdict.diagnostics
    assert abs(d["theta"] - 3 * math.pi / 4) <= 1e-10
    want_sigma = 5 * math.sqrt(2)
    assert abs(abs(d["sigma_sum_theta"]) - want_sigma) <= 1e-9 * want_sigma
    want_s = 20 * math.sqrt(29)
    assert abs(d["s_diff"] - want_s) <= 1e-9 * want_s
    assert abs(d["sqrt_det_im"] - 58.0) <= 1e-9 * 58.0
    assert abs(d["gen_lhs"] - 11600.0) <= 1e-9 * 11600.0
    assert abs(d["gen_rhs"] - 11600.0) <= 1e-9 * 11600.0
    assert elapsed < 0.1
    print(
        f"\n[PASS] criterion 1: worked example "
        f"(theta={d['theta']:.12f}, {elapsed * 1e3:.1f} ms)"
    )


def test_criterion_2_first_figure_reproductions():
    for label, sf in (("left", fig_left_special()), ("right", fig_right_special())):
        t0 = time.perf_counter()
        verdict = check_special(sf)
        assert verdict.bielliptical
        assert verdict.diagnostics["t_norm"] <= 1e-12
        haus, diam = _hull_distance(verdict, sf.assemble(), 2048)
        elapsed = time.perf_counter() - t0
        assert haus <= 1e-6 * diam
        assert elapsed < 1.0
        print(
            f"\n[PASS] criterion 2 ({label}): |T|={verdict.diagnostics['t_norm']:.2e}, "
            f"Hausdorff/diam={haus / diam:.2e}, {elapsed * 1e3:.0f} ms"
        )


def test_criterion_3_reciprocal_example():
    rec = reciprocal_two_ellipse()
    from birange.criteria import ReciprocalShape, reciprocal_classify

    assert reciprocal_classify(rec) is ReciprocalShape.BI_ELLIPTICAL
    bf = from_reciprocal(rec)
    spec = spectrum(bf)
    golden_hi = (1 + math.sqrt(5)) / 2
    golden_lo = (math.sqrt(5) - 1) / 2
    got = sorted((abs(spec.sigma1), abs(spec.sigma2)))
    assert abs(got[0] - golden_lo) <= 1e-10
    assert abs(got[1] - golden_hi) <= 1e-10

    verdict = check_general(bf)
    assert verdict.bielliptical
    assert abs(verdict.diagnostics["s_diff"] ** 2 - 4.0) <= 1e-10
    a = bf.assemble()
    im = (1 / 2j) * (a - a.H)
    assert abs(np.linalg.det(np.array(im.rows)).real - 1.0) <= 1e-10

    haus, diam = _hull_distance(verdict, a, 2048)
    assert haus <= 1e-6 * diam
    print(
        f"\n[PASS] criterion 3: reciprocal example "
        f"(spectrum ok, Hausdorff/diam={haus / diam:.2e})"
    )


def _real_pool(rng, count):
    pool = []
    for k in range(count):
        r = k % 10
        if r < 6:
            pool.append(random_special(rng, v_zero=True))
        elif r < 8:
            pool.append(bi_special_real_case_i(rng))
        elif r < 9:
            pool.append(bi_special_real_case_ii(rng))
        else:
            good = bi_special_real_case_i(rng)
            pool.append(
                SpecialForm(u=good.u, v=0.0, b1=good.b1, b2=good.b2,
                            b=good.b + 1e-3)
            )
    return pool


def _imag_pool(rng, count):
    pool = []
    for k in range(count):
        r = k % 10
        if r < 6:
            pool.append(random_special(rng, u_zero=True))
        elif r < 9:
            pool.append(bi_special_imag(rng))
        else:
            good = bi_special_imag(rng)
            pool.append(
                SpecialForm(u=0.0, v=good.v, b1=good.b1, b2=good.b2,
                            b=good.b + 1e-3)
            )
    return pool


def test_criterion_4_specialization_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240804)
    disagreements = 0

    for sf in _real_pool(rng, 5000):
        if check_real(sf).bielliptical != check_special(sf).bielliptical:
            disagreements += 1
    for sf in _imag_pool(rng, 5000):
        if check_imag(sf).bielliptical != check_special(sf).bielliptical:
            disagreements += 1
    assert disagreements == 0

    general_mismatch = 0
    for k in range(10_000):
        if k % 10 < 7:
            sf = random_special(rng)
        else:
            sf = bi_special_any(rng)
        bf, _ = disguise(rng, sf)
        want = check_special(sf).bielliptical
        if check_general(bf).bielliptical != want:
            general_mismatch += 1
    assert general_mismatch == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 4: 2x5000 specializations + 10000 disguised, "
        f"0 disagreements, {elapsed:.1f} s"
    )


def test_criterion_5_identity_suite():
    rng = np.random.default_rng(50331)
    thetas = [2 * math.pi * k / 64 for k in range(64)]
    cos2 = [math.cos(2 * t) for t in thetas]
    sin2 = [math.sin(2 * t) for t in thetas]
    cos4 = [math.cos(4 * t) for t in thetas]
    sin4 = [math.sin(4 * t) for t in thetas]
    sin_sq = [math.sin(t) ** 2 for t in thetas]

    from birange.criteria import ellipse_pair_params
    from birange.nrcore import generating_poly, pencil_eigs

    total = 10_000
    positives = []
    for idx in range(total):
        if idx % 200 == 0:
            sf = bi_special_any(rng)
            positives.append(sf)
        else:
            sf = random_special(rng)
        bf = sf.to_block()
        gp = generating_poly(bf)
        params = ellipse_pair_params(sf)
        data = criterion_T(sf)
        scale4 = 1.0 + sf.scale() ** 4

        # (c) factor-parameter identities
        assert abs((params.z - params.x) - (1 + sf.v**2)) <= 1e-14 * scale4
        lhs = params.z**2 - params.x**2 - params.y**2
        rhs = (
            (1 + sf.v**2) * (sf.xi1**2 + sf.xi2**2) / 2.0
            + (1 + 2 * sf.v**2) * sf.b**2 / 4.0
            + (sf.u - (sf.eta1 + sf.eta2) * sf.v / 2.0) ** 2
            + sf.v**2 * (sf.eta1 - sf.eta2) ** 2 / 4.0
        )
        assert abs(lhs - rhs) <= 1e-11 * scale4
        assert lhs > 0.0

        p2 = params.p * params.p
        for i, t in enumerate(thetas):
            lam1, lam2 = pencil_eigs(bf, t)
            sq1, sq2 = lam1 * lam1, lam2 * lam2
            xi1 = gp.xi1_const + gp.xi1_cos2 * cos2[i] + gp.xi1_sin2 * sin2[i]
            xi2 = (
                gp.xi2_const_x16
                + gp.xi2_cos2_x16 * cos2[i]
                + gp.xi2_sin2_x16 * sin2[i]
                + gp.xi2_cos4_x16 * cos4[i]
                + gp.xi2_sin4_x16 * sin4[i]
            ) / 16.0
            # (a) symmetric functions of the pencil eigenvalues
            assert abs(xi1 - (sq1 + sq2)) <= 1e-10 * scale4
            assert abs(xi2 - sq1 * sq2) <= 1e-10 * scale4
            # (b) the 1/32 combination identity
            omega = params.x * cos2[i] + params.y * sin2[i] - params.z
            comb = 32.0 * ((p2 * sin_sq[i] + omega) ** 2 - xi2)
            want = (
                3.0 * data.reT
                - 4.0 * data.reT * cos2[i]
                - 2.0 * data.imT * sin2[i]
                + data.reT * cos4[i]
                + data.imT * sin4[i]
            )
            assert abs(comb - want) <= 32.0 * 1e-9 * scale4

    # (d) flat portions on every instance that classifies positively
    checked = 0
    for sf in positives:
        verdict = check_special(sf)
        if not verdict.bielliptical:
            continue
        a = sf.assemble()
        samples = boundary_support(a, 512)
        flats = flat_portions(a, samples)
        assert len(flats) == 2
        combo = abs(verdict.diagnostics["sigma_combo"])
        for f in flats:
            assert abs(f.length - combo) <= 1e-6 * combo
        checked += 1
    assert checked >= 40
    print(
        f"\n[PASS] criterion 5: identity suite on {total} forms "
        f"({checked} flat-portion instances)"
    )


def _t_scan(u, v, b1, b2, b_grid):
    """|T| and its scale normalization along a coupling grid, vectorized."""
    eta1, eta2 = b1.imag, b2.imag
    xi1, xi2 = b1.real, b2.real
    ab1, ab2 = abs(b1) ** 2, abs(b2) ** 2
    k = 1.0 + v * v
    b2g = b_grid * b_grid
    four_p2 = ((eta1 - eta2) ** 2 + b2g) / k
    re_t = (four_p2 - (b2g + ab1 + ab2)) ** 2 - 4.0 * u * u * four_p2 - 4.0 * ab1 * ab2
    im_t = 4.0 * v * (v * (eta1 + eta2) - 2.0 * u) * four_p2 + 4.0 * (
        xi1 * xi1 - xi2 * xi2
    ) * (eta1 - eta2)
    base = (
        4.0 * (u * u + v * v)
        + abs(b1.conjugate() + 1) ** 2
        + abs(b1 - 1) ** 2
        + abs(b2.conjugate() + 1) ** 2
        + abs(b2 - 1) ** 2
    )
    scale4 = (1.0 + np.sqrt(base + 2.0 * b2g)) ** 4
    return np.hypot(re_t, im_t) / scale4


def test_criterion_6_coupling_uniqueness():
    rng = np.random.default_rng(606060)
    b_grid = np.geomspace(1e-4, 1e3, 4000)

    def refine_minimum(u, v, b1, b2, lo, hi):
        for _ in range(80):
            m1 = lo + (hi - lo) * 0.382
            m2 = lo + (hi - lo) * 0.618
            f1 = float(_t_scan(u, v, b1, b2, np.array([m1]))[0])
            f2 = float(_t_scan(u, v, b1, b2, np.array([m2]))[0])
            if f1 <= f2:
                hi = m2
            else:
                lo = m1
        mid = 0.5 * (lo + hi)
        return mid, float(_t_scan(u, v, b1, b2, np.array([mid]))[0])

    for trial in range(1000):
        if trial % 10 < 3:
            sf = bi_special_general(rng)
            u, v, b1, b2 = sf.u, sf.v, sf.b1, sf.b2
        else:
            u = float(rng.normal())
            v = float(rng.normal())
            if abs(u) + abs(v) < 1e-3:
                u = 0.5
            b1 = complex(rng.normal(), rng.normal())
            b2 = complex(rng.normal(), rng.normal())
        values = _t_scan(u, v, b1, b2, b_grid)
        roots = []
        for i in range(1, len(b_grid) - 1):
            if values[i] <= values[i - 1] and values[i] <= values[i + 1]:
                b_star, t_star = refine_minimum(
                    u, v, b1, b2, b_grid[i - 1], b_grid[i + 1]
                )
                if t_star <= TOL_CRITERION:
                    if not any(abs(b_star - r) <= 1e-6 * r for r in roots):
                        roots.append(b_star)
        assert len(roots) <= 1, (u, v, b1, b2, roots)
        solved = solve_b(u, v, b1, b2)
        if roots:
            assert solved is not None
            assert abs(solved - roots[0]) <= 1e-6 * roots[0]
        else:
            assert solved is None or not (1e-4 <= solved <= 1e3)
    print("\n[PASS] criterion 6: coupling uniqueness over 1000 scans")


def test_criterion_7_irreducibility():
    rng = np.random.default_rng(70707)
    for _ in range(1000):
        sf = random_special(rng)
        bf, _ = disguise(rng, sf)
        assert commutant_dim(bf.assemble()) == 1
    for _ in range(1000):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), y]])
        assert commutant_dim(m) >= 2
    print("\n[PASS] criterion 7: 1000 irreducible + 1000 reducible controls")


def _polygon_distance(points, verts):
    z = np.asarray(points)[:, None]
    v = np.asarray(verts)
    d = (np.roll(v, -1) - v)[None, :]
    v = v[None, :]
    t = np.clip(
        ((z - v) * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0
    )
    return np.abs(z - (v + t * d)).min(axis=1)


def _best_pair_fit_error(samples, diam):
    """Best achievable boundary distance for a hull of two congruent
    ellipses with clearly distinct centers (mirror pair through the middle).

    Nelder-Mead over center offset, axes and tilt from several starts; the
    center separation is kept above 5 percent of the diameter, otherwise the
    pair would degenerate into the concentric family.
    """
    oracle = np.array([s.point for s in samples])
    mid = complex(oracle.mean())
    q_min = 0.05 * diam

    def objective(params):
        qr, qi, la, lb, phi = params
        q = complex(qr, qi)
        if abs(q) < q_min:
            q = q * (q_min / max(abs(q), 1e-12))
        a_len = math.exp(la)
        b_len = min(math.exp(lb), a_len)
        e1 = Ellipse(center=mid + q, semi_major=a_len, semi_minor=b_len, tilt=phi)
        e2 = Ellipse(center=mid - q, semi_major=a_len, semi_minor=b_len, tilt=phi)
        hull = np.array(hull_boundary(e1, e2, 192))
        sub = oracle[:: max(1, len(oracle) // 192)]
        return max(
            float(_polygon_distance(sub, hull).max()),
            float(_polygon_distance(hull, sub).max()),
        )

    spread = max(oracle.real.max() - oracle.real.min(),
                 oracle.imag.max() - oracle.imag.min())
    best = math.inf
    for direction in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        q0 = 0.15 * diam * cmath.exp(1j * direction)
        start = np.array(
            [q0.real, q0.imag, math.log(0.5 * spread), math.log(0.25 * spread),
             direction]
        )
        res = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxiter": 300, "xatol": 1e-5, "fatol": 1e-9},
        )
        best = min(best, float(res.fun))
    return best


def test_criterion_8_negative_controls():
    rng = np.random.default_rng(80808)

    # Normal coupling block: rejected as BNormal, geometry concentric.
    sf0 = SpecialForm(u=0.25, v=-0.15, b1=1.6 + 0.5j, b2=0.4 - 0.9j, b=0.0)
    verdict0 = check_special(sf0)
    assert not verdict0.bielliptical
    assert verdict0.reason is Reason.B_NORMAL
    a0 = sf0.assemble()
    samples0 = boundary_support(a0, 512)
    diam0 = _diameter([s.point for s in samples0])
    fit0 = _best_pair_fit_error(samples0, diam0)
    assert fit0 > 1e-3 * diam0

    # Vanishing scalar multiple: rejected as ProductNormal.
    theta0 = 0.9
    d = random_cmat(rng)
    c = cmath.exp(2j * theta0) * d.H
    bf1 = BlockForm(alpha=0.3 + 0.6j, C=c, D=d)
    verdict1 = check_general(bf1)
    assert not verdict1.bielliptical
    assert verdict1.reason is Reason.PRODUCT_NORMAL
    a1 = bf1.assemble()
    samples1 = boundary_support(a1, 512)
    diam1 = _diameter([s.point for s in samples1])
    fit1 = _best_pair_fit_error(samples1, diam1)
    assert fit1 > 1e-3 * diam1

    print(
        f"\n[PASS] criterion 8: negative controls "
        f"(fit errors {fit0 / diam0:.2e}, {fit1 / diam1:.2e} of diameter)"
    )
