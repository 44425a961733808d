"""The audit's strength, measured with forged verdicts (ROADMAP item 15).

``verify.audit`` checks whatever verdict it is given, so planting a known
error in a true verdict and counting the audits that fail measures what
the audit resolves.  The forms are seed 101's first 60 block-form bench
positives, two disguised positives whose center offset, and with it each
flat portion, is at most 1e-3 of the diameter, and one whose ellipses are
near-degenerate (semi-minor / semi-major 5e-4), so that each flat portion
ends in a near-corner.  ``nrcore.DEFAULT_SAMPLES`` must resolve as much as
2048 samples do.
"""

import functools
import math

import numpy as np
import pytest

from birange import cli, nrcore, verify
from birange.forms import SpecialForm
from helpers import ELLIPSE_FORGERIES, disguise, forge_verdict, load_bench_module

DELTAS = (1e-5, 3e-6, 1e-6, 3e-7, 1e-7)
SAMPLE_COUNTS = sorted({nrcore.DEFAULT_SAMPLES, 2048})


def corpus_payloads(label: bool, count: int) -> list:
    """The first ``count`` block-form bench documents of seed 101 with
    ``label``, parsed as the CLI parses them."""
    corpus = load_bench_module("corpus")
    chosen = [i for i in corpus.generate(101, 800)
              if i["label"] == label and i["form"] == "block"][:count]
    return [cli.parse_matrix_spec(corpus.document(i))[1] for i in chosen]


@functools.cache
def forms() -> dict[str, list]:
    rng = np.random.default_rng(15)

    def real_case_i(b):
        # u = 1, equal imaginary parts: coupling b, center offset b / 2.
        return SpecialForm(1.0, 0.0, 1.0 + 0.3j, complex(math.sqrt(1.0 - 2.0 * b), 0.3), b)

    return {
        "corpus": corpus_payloads(True, 60),
        "localized": [disguise(rng, real_case_i(b))[0] for b in (1e-3, 1e-4)],
        "near-degenerate": [disguise(rng, SpecialForm(0.0, 0.0, 0.5j, -0.3j, 1e-3))[0]],
        "negatives": corpus_payloads(False, 20),
    }


@functools.cache
def reports(samples: int) -> list[tuple]:
    """(payload, report of its true verdict) for every form at ``samples``:
    the positives first, then the 20 negatives."""
    return [(p, verify.audit(p, samples=samples))
            for group in forms().values() for p in group]


def caught(payload, report: verify.AuditReport, kind: str, delta: float) -> bool:
    """Whether the audit fails ``report``'s verdict with a planted error."""
    forged = forge_verdict(report.verdict, kind, delta)
    return bool(verify.audit(payload, forged, len(report.boundary.support)).failures)


@functools.cache
def detection_table(samples: int) -> dict[tuple, int]:
    """Forms caught at ``samples`` directions, keyed (kind, delta): every
    ellipse forgery at every delta of ``DELTAS`` on the positives, then the
    forged negatives on the positives and the forged reasons on the
    negatives, with delta None."""
    positive = [(p, r) for p, r in reports(samples) if r.verdict.bielliptical]
    negative = [(p, r) for p, r in reports(samples) if not r.verdict.bielliptical]
    table = {(kind, d): sum(caught(p, r, kind, d) for p, r in positive)
             for kind in ELLIPSE_FORGERIES for d in DELTAS}
    table["negative", None] = sum(caught(p, r, "negative", 0.0) for p, r in positive)
    table["reason", None] = sum(caught(p, r, "reason", 0.0) for p, r in negative)
    return table


class TestAuditStrength:
    def test_form_set(self):
        # The localized forms' flat portions are at most 1e-3 of the
        # diameter long; the near-degenerate form's ellipses are needles.
        for p in forms()["localized"]:
            report = verify.audit(p)
            e1, e2 = report.verdict.ellipses
            assert abs(e1.center - e2.center) <= 1e-3 * report.diameter
        (p,) = forms()["near-degenerate"]
        e1, _ = verify.audit(p).verdict.ellipses
        assert e1.semi_minor <= 1e-3 * e1.semi_major

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_true_verdicts_pass(self, samples):
        verdicts = [r.verdict for _, r in reports(samples)]
        assert [v.ellipses is not None for v in verdicts] == [True] * 63 + [False] * 20
        assert [r.failures for _, r in reports(samples)] == [[]] * 83

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    @pytest.mark.parametrize("kind", ELLIPSE_FORGERIES)
    def test_ellipse_forgeries_caught(self, kind, samples):
        # An error of 1e-5 of the diameter is ten times the hull gate.
        missed = [i for i, (p, r) in enumerate(reports(samples))
                  if r.verdict.bielliptical and not caught(p, r, kind, 1e-5)]
        assert missed == []

    def test_default_resolves_as_much_as_2048(self):
        # The whole detection curve, not only its floor at 1e-5, except at
        # delta = 1e-6, the hull gate's own size: there a tilt forgery's
        # hull gap is the gate to first order and within a relative 1e-5 of
        # it, so where the samples fall decides the count (2 of 63 caught at
        # 2048 samples, 1 at 1024 and 3 at 4096).
        def off_gate(table):
            return {key: n for key, n in table.items() if key[1] != verify._HULL_REL}

        assert (off_gate(detection_table(nrcore.DEFAULT_SAMPLES))
                == off_gate(detection_table(2048)))

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 8: a negative verdict meets no geometric check, so a "
        "positive forged as negative, or a negative given another reason, "
        "passes the audit"))
    def test_forged_verdicts_caught(self):
        table = detection_table(nrcore.DEFAULT_SAMPLES)
        assert (table["negative", None], table["reason", None]) == (63, 20)
