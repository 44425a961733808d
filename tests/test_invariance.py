"""The verdict is a property of the matrix up to the transformations the
paper reduces by: A -> tA + c and block-unitary similarity.

Every decision gate compares a quantity of degree k with ``TOL * s**k``,
``s`` being the shift-free norm of the data the quantity is computed from,
so scaling by t over sixteen orders of magnitude, shifting by up to 1e6 t
and hiding the blocks behind unitaries must leave ``check_general``'s
verdict and reason unchanged.  Hypothesis draws the instances, derandomized so that every run
tests the same ones.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from birange.cli import main
from birange.criteria import check_general, check_imag, check_real, criterion_T
from birange.forms import SpecialForm, normalize_block
from birange.linalg import CMatrix
from helpers import (
    bi_special_general,
    bi_special_imag,
    bi_special_real_case_i,
    bi_special_real_case_ii,
    general_example_block,
    load_bench_module,
    random_special,
    random_unitary2,
)

FAMILIES = {
    "real_case_i": bi_special_real_case_i,
    "real_case_ii": bi_special_real_case_ii,
    "imaginary": bi_special_imag,
    "general": bi_special_general,
    "negative": random_special,
}

invariance = settings(
    derandomize=True, database=None, deadline=None, max_examples=150
)

seeds = st.integers(0, 2**32 - 1)
# t log-uniform on [1e-8, 1e8]; |c| / t log-uniform on [1e-2, 1e6] or zero.
scales = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
shift_ratios = st.one_of(st.just(0.0), st.floats(-2.0, 6.0).map(lambda e: 10.0**e))
angles = st.floats(0.0, 2.0 * math.pi)


def transformed(sf, t, c, rotation=0.0, u1=None, u2=None):
    """The block form of t e^{i rotation} (U-similar copy of sf) + c."""
    bf = sf.to_block()
    cm, dm = bf.C, bf.D
    if u1 is not None:
        cm, dm = u1.H @ cm @ u2, u2.H @ dm @ u1
    w = t * cmath.exp(1j * rotation)
    return normalize_block(w * sf.alpha + c, -w * sf.alpha + c, w * cm, w * dm)


def base_case(family, seed):
    """A special form of ``family`` and its untransformed verdict, which
    must match the family's label.  Negatives whose normalized criterion
    value lies within a factor 1000 of the tolerance are skipped: the
    invariance claim covers verdicts outside that band."""
    sf = FAMILIES[family](np.random.default_rng(seed))
    if family == "negative":
        assume(abs(criterion_T(sf).T) / sf.scale() ** 4 > 1e-6)
    verdict = check_general(sf.to_block())
    assert verdict.bielliptical == (family != "negative")
    return sf, (verdict.bielliptical, verdict.reason)


@invariance
@given(st.sampled_from(sorted(FAMILIES)), seeds, scales, shift_ratios, angles)
def test_verdict_invariant_under_scale_and_shift(family, seed, t, ratio, phase):
    sf, expected = base_case(family, seed)
    bf = transformed(sf, t, ratio * t * cmath.exp(1j * phase))
    verdict = check_general(bf)
    assert (verdict.bielliptical, verdict.reason) == expected


@invariance
@given(st.sampled_from(sorted(FAMILIES)), seeds, scales, shift_ratios, angles, angles)
def test_verdict_invariant_under_block_unitary_disguise(
    family, seed, t, ratio, phase, rotation
):
    sf, expected = base_case(family, seed)
    rng = np.random.default_rng(seed + 1)
    u1, u2 = random_unitary2(rng), random_unitary2(rng)
    bf = transformed(sf, t, ratio * t * cmath.exp(1j * phase), rotation, u1, u2)
    verdict = check_general(bf)
    assert (verdict.bielliptical, verdict.reason) == expected


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
