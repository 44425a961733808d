"""The verdict is a property of the matrix up to the transformations the
paper reduces by: A -> tA + c and block-unitary similarity.

Every decision gate compares a quantity of degree k with ``TOL * s**k``,
``s`` being the shift-free norm of the data the quantity is computed from,
so scaling by t over sixteen orders of magnitude, shifting by up to 1e6 t
and hiding the blocks behind unitaries must leave ``check_general``'s
verdict and reason unchanged, and must move its ellipses with the range.
Hypothesis draws the instances, derandomized so that every run tests the
same ones.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birange.cli import main
from birange.criteria import check_general, criterion_T
from birange.forms import SpecialForm, normalize_block
from birange.linalg import CMatrix
from helpers import (
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    check_imag,
    check_real,
    general_example_block,
    load_bench_module,
    random_special,
    random_unitary2,
    short_offset_special,
    transformed,
)

FAMILIES = {
    "real_case_i": bi_special_real_case_i,
    "real_case_ii": bi_special_real_case_ii,
    "imaginary": bi_special_imag,
    "general": bi_special_general,
    "negative": random_special,
    "short_offset": short_offset_special,
}

invariance = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)

seeds = st.integers(0, 2**32 - 1)
# t log-uniform on [1e-8, 1e8]; |c| / t log-uniform on [1e-2, 1e6] or zero.
scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
shift_ratios = st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda e: 10.0**e))
angles = st.floats(0.0, 2.0 * math.pi)


def base_case(family, seed):
    """A special form of ``family`` and its untransformed verdict, which
    must match the family's label.  Negatives whose normalized criterion
    value lies within a factor 1000 of the tolerance are skipped: the
    invariance claim covers verdicts outside that band."""
    sf = FAMILIES[family](np.random.default_rng(seed))
    if family == "negative":
        assume(abs(criterion_T(sf)) / sf.scale() ** 4 > 1e-6)
    verdict = check_general(sf.to_block())
    assert verdict.bielliptical == (family != "negative")
    return sf, verdict


def assert_moved(verdict, base, w, c):
    """``verdict`` is ``base`` for the range moved by z -> w z + c: the same
    verdict and reason, and ellipses with centers w center + c, semi-axes
    |w| times the base's and tilt the base's plus arg w mod pi, each within
    1e-10 of the diameter (the tilt as the turn times the axis difference,
    the largest distance it moves a point)."""
    assert (verdict.bielliptical, verdict.reason) == (base.bielliptical, base.reason)
    if base.ellipses is None:
        assert verdict.ellipses is None
        return
    e1, e2 = base.ellipses
    tol = 1e-10 * abs(w) * (abs(e1.center - e2.center) + 2.0 * e1.semi_major)
    for b in base.ellipses:
        center = w * b.center + c
        e = min(verdict.ellipses, key=lambda e: abs(e.center - center))
        turn = (e.tilt - b.tilt - cmath.phase(w) + math.pi / 2) % math.pi - math.pi / 2
        assert abs(e.center - center) <= tol
        assert abs(e.semi_major - abs(w) * b.semi_major) <= tol
        assert abs(e.semi_minor - abs(w) * b.semi_minor) <= tol
        assert abs(turn) * (e.semi_major - e.semi_minor) <= tol


@invariance
@given(st.sampled_from(sorted(FAMILIES)), seeds, scales, shift_ratios, angles)
def test_verdict_invariant_under_scale_and_shift(family, seed, t, ratio, phase):
    sf, base = base_case(family, seed)
    c = ratio * t * cmath.exp(1j * phase)
    assert_moved(check_general(transformed(sf, t, c)), base, t, c)


@invariance
@given(st.sampled_from(sorted(FAMILIES)), seeds, scales, shift_ratios, angles, angles)
def test_verdict_invariant_under_block_unitary_disguise(
    family, seed, t, ratio, phase, rotation
):
    sf, base = base_case(family, seed)
    rng = np.random.default_rng(seed + 1)
    u1, u2 = random_unitary2(rng), random_unitary2(rng)
    c = ratio * t * cmath.exp(1j * phase)
    bf = transformed(sf, t, c, rotation, u1, u2)
    assert_moved(check_general(bf), base, t * cmath.exp(1j * rotation), c)


@pytest.mark.parametrize("size", [200.0, 1e4, 1e5])
@pytest.mark.parametrize("kind", ["real", "imaginary"])
def test_positive_whose_diagonal_dominates_the_blocks(kind, size):
    # |alpha| up to 1e5 against coupling blocks of norm about 8: the gates
    # computed from C and D alone (trace, mu, product commutator, b) are
    # measured against tr H, so they must not grow with alpha.
    if kind == "real":  # real case (i): 4 b^2 u^2 = (xi1^2 - xi2^2)^2
        sf = SpecialForm(u=size, v=0.0, b1=5.0, b2=0.0, b=12.5 / size)
        assert check_real(sf).bielliptical
    else:  # |b1| = |b2| and v^2 b^2 = (eta1 - eta2)^2
        sf = SpecialForm(u=0.0, v=size, b1=3 + 4j, b2=5.0, b=4.0 / size)
        assert check_imag(sf).bielliptical
    rng = np.random.default_rng(7)
    u1, u2 = random_unitary2(rng), random_unitary2(rng)
    for bf in (
        sf.to_block(),
        transformed(sf, 1e-3, 7e-3j),
        transformed(sf, 1e3, 5e2, 0.4, u1, u2),
    ):
        verdict = check_general(bf)
        assert verdict.bielliptical, verdict.reason


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: find_theta's gate measures the deviation against "
    "tr(M*M) = 2 mu, not tr H, so a coupling-dominated positive is found "
    "at some rotations and missed at others"))
def test_rotation_of_a_coupling_dominated_positive():
    # check_special calls it positive and its audit passes (hull gap 3.6e-14
    # x diameter), but tr H / mu is about 7.1e7: the deviation find_theta
    # minimizes is 1.3e-12 at the root theta = 0 and 8.4e-9 at 1e-12 rad
    # from it, so e^{i pi k / 64} A for k = 0..63 was BiElliptical 37 times
    # and NoTheta 27 times.
    sf = SpecialForm(u=0.007763451533824739, v=0.0,
                     b1=-14.246537875192274 + 2.8704548550244056j,
                     b2=-4.306194699180505 + 2.6286843303560126j, b=11877.483091028018)
    verdicts = {(v.kind, v.reason) for v in (
        check_general(transformed(sf, 1.0, 0j, math.pi * k / 64)) for k in range(64))}
    assert len(verdicts) == 1, verdicts


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _grid(m: CMatrix) -> list[list[list[float]]]:
    return [[_pair(m[i, j]) for j in range(2)] for i in range(2)]


def test_cli_audits_a_tiny_shifted_matrix(tmp_path, capsys):
    # The worked example at t = 1e-6, shifted by 1e6 t: positive, with no
    # consistency failure, in both ``check`` and ``verify``.
    t = 1e-6
    c = 1e6 * t * cmath.exp(0.7j)
    base = general_example_block()
    bf = normalize_block(t * base.alpha + c, -t * base.alpha + c, t * base.C, t * base.D)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "form": "block", "alpha": _pair(bf.alpha + bf.shift),
        "beta": _pair(bf.shift - bf.alpha), "C": _grid(bf.C), "D": _grid(bf.D),
    }))
    assert main(["check", "--format", "json", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "BiElliptical"
    assert report["consistency_failures"] == []
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and "verdict: BiElliptical" in out


@pytest.mark.parametrize("t", [1e-36, 1e35, 3.5e35])
def test_benchmark_classify_corpus_at_the_ends_of_the_range(t):
    # The benchmark's ``classify`` families (shift-free scales 1.2 to 28 at
    # seed 101) scaled to the floor forms.MIN_SCALE, to the entry ceiling
    # 1e36 of the CLI and to just under forms.MAX_SCALE (28 * 3.5e35 =
    # 9.9e36): every verdict still matches its label.
    corpus = load_bench_module("corpus")
    failed = []
    for k, inst in enumerate(corpus.generate(101, 2000)):
        bf = normalize_block(t * inst["alpha"], t * inst["beta"],
                             t * CMatrix(inst["C"]), t * CMatrix(inst["D"]))
        if check_general(bf).bielliptical != inst["label"]:
            failed.append((k, inst["family"]))
    assert failed == []


def test_benchmark_affine_corpus_replays_without_failure():
    # The benchmark's ``affine`` workload: the same families behind
    # A -> tA + c with t in [1e-8, 1e8] and |c| up to 1e6 t, seed 101.
    corpus = load_bench_module("corpus")
    failed = []
    for k, inst in enumerate(corpus.generate(101, 1200, affine=True)):
        bf = normalize_block(
            inst["alpha"], inst["beta"], CMatrix(inst["C"]), CMatrix(inst["D"])
        )
        if check_general(bf).bielliptical != inst["label"]:
            failed.append((k, inst["family"]))
    assert failed == []
