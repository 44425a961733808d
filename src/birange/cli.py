"""Command-line front end: classification, boundary export, verification.

Input is a JSON document describing one matrix (or an array of them for
batch runs).  Complex numbers are 2-element arrays ``[re, im]``; plain
numbers are accepted where a real value is meant.  This module only parses,
formats and maps outcomes to exit codes: ``verify.check_documents`` audits
the documents of one call, and ``forms.detect_block`` splits a raw matrix
into blocks.

Numbers must be finite with magnitude at most 1e36.  A matrix that
``check``, ``verify`` or ``boundary --format svg`` classifies must, less its
trace shift, be zero or have Frobenius norm at least 1e-36
(``forms.MIN_SCALE``); that bound on the entries keeps the norm below 6e36,
under ``forms.MAX_SCALE``.

Exit codes: 0 positive verdict, 1 negative verdict, 2 input or usage error
(including non-finite or out-of-range numbers), 3 internal failure (an
oracle disagreed with a verdict, or an exception escaped; either signals a
bug).  No exception leaves ``main`` with exit 1, which means "not
bi-elliptical".  A reader that closes standard output early ends the
output; the exit code stays the command's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import sys
import traceback

from . import criteria, forms, nrcore, verify
from .linalg import CMatrix

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Largest accepted magnitude of a matrix entry (real and imaginary parts
# separately).  The direction solve squares Gram entries that are quartic in
# the matrix, and degree-8 quantities overflow double precision once entries
# pass about 1e38.
_MAX_MAGNITUDE = 1e36
# Largest accepted ``--samples``, 64 times the default: the oracle's arrays
# are O(samples), and an unbounded count would exhaust memory, not exit 2.
_MAX_SAMPLES = 1 << 16


class InputError(ValueError):
    pass


def _in_range(x: float) -> bool:
    """Finite and at most ``_MAX_MAGNITUDE`` in absolute value."""
    return abs(x) <= _MAX_MAGNITUDE


def _is_number(x) -> bool:
    """An int or float; JSON true/false parse to ``bool``, which is an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_complex(value) -> complex:
    if _is_number(value):
        parts = (value, 0.0)
    elif (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(x) for x in value)
    ):
        parts = value
    else:
        raise InputError(f"expected a number or [re, im] pair, got {value!r}")
    if not all(_in_range(x) for x in parts):
        raise InputError(
            f"expected finite parts of magnitude at most {_MAX_MAGNITUDE:g}, "
            f"got {value!r}"
        )
    return complex(parts[0], parts[1])


def _parse_real(value, name: str) -> float:
    if not _is_number(value):
        raise InputError(f"field {name!r} must be a real number")
    if not _in_range(value):
        raise InputError(
            f"field {name!r} must be finite with magnitude at most "
            f"{_MAX_MAGNITUDE:g}"
        )
    return float(value)


def _reciprocal_form(a1: float, a2: float, a3: float) -> forms.ReciprocalForm:
    """Validated reciprocal form; its entries include 1/a1, 1/a2, 1/a3."""
    rec = forms.ReciprocalForm(a1=a1, a2=a2, a3=a3)
    for a in (rec.a1, rec.a2, rec.a3):
        if not (_in_range(a) and _in_range(1.0 / a)):
            raise InputError(
                f"reciprocal entries must lie in [{1 / _MAX_MAGNITUDE:g}, "
                f"{_MAX_MAGNITUDE:g}]"
            )
    return rec


def _parse_cmat(value, name: str, size: int) -> CMatrix:
    if not (isinstance(value, list) and len(value) == size
            and all(isinstance(row, list) and len(row) == size for row in value)):
        raise InputError(f"field {name!r} must be a {size}x{size} grid")
    return CMatrix([[_parse_complex(x) for x in row] for row in value])


def _require(doc: dict, *names: str):
    for name in names:
        if name not in doc:
            raise InputError(f"missing field {name!r}")


def parse_matrix_spec(doc: dict):
    """Return (kind, payload): kind in {block, special, reciprocal, raw}."""
    if not isinstance(doc, dict):
        raise InputError("matrix document must be a JSON object")
    form = doc.get("form")
    if form == "raw":
        _require(doc, "matrix")
        return "raw", _parse_cmat(doc["matrix"], "matrix", 4)
    if form == "block":
        _require(doc, "alpha", "beta", "C", "D")
        return "block", forms.normalize_block(
            _parse_complex(doc["alpha"]),
            _parse_complex(doc["beta"]),
            _parse_cmat(doc["C"], "C", 2),
            _parse_cmat(doc["D"], "D", 2),
        )
    if form == "special":
        _require(doc, "u", "v", "b1", "b2", "b")
        b = _parse_real(doc["b"], "b")
        if b < 0:
            raise InputError("field 'b' must be nonnegative")
        return "special", forms.SpecialForm(
            u=_parse_real(doc["u"], "u"),
            v=_parse_real(doc["v"], "v"),
            b1=_parse_complex(doc["b1"]),
            b2=_parse_complex(doc["b2"]),
            b=b,
        )
    if form == "reciprocal":
        _require(doc, "a1", "a2", "a3")
        return "reciprocal", _reciprocal_form(
            _parse_real(doc["a1"], "a1"),
            _parse_real(doc["a2"], "a2"),
            _parse_real(doc["a3"], "a3"),
        )
    raise InputError(
        "field 'form' must be one of raw | block | special | reciprocal"
    )


def _load_documents(path: str) -> tuple[list[dict], bool]:
    """The matrix documents in ``path`` and whether they came as an array."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: nested too deeply") from exc
    if isinstance(data, dict):
        return [data], False
    if data == []:
        raise InputError("input array holds no matrix documents")
    if isinstance(data, list) and all(isinstance(d, dict) for d in data):
        return data, True
    raise InputError("input must be a JSON object or an array of objects")


def _cformat(z: complex, digits: int = 12) -> str:
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _require_samples(samples: int, floor: int) -> None:
    """The one ``--samples`` rule: a multiple of 4 from ``floor`` to ``_MAX_SAMPLES``."""
    if samples % 4 or not floor <= samples <= _MAX_SAMPLES:
        raise InputError(f"--samples must be a multiple of 4 from {floor} to {_MAX_SAMPLES}")


def _audited(payloads, samples: int) -> list[verify.AuditReport]:
    """The audit reports of parsed documents for ``check`` and ``verify``,
    from one ``verify.check_documents`` call."""
    reports = verify.check_documents(payloads, samples)
    if None in reports:
        raise InputError("matrix lacks scalar 2x2 diagonal blocks; only the boundary "
                         "subcommand applies to unstructured matrices")
    return reports


def _exit_code(consistent: bool, positive: bool) -> int:
    """A failed consistency check exits 3, otherwise the verdict 0 or 1."""
    return EXIT_INTERNAL if not consistent else EXIT_POSITIVE if positive else EXIT_NEGATIVE


def _report(kind: str, payload, audited: verify.AuditReport) -> dict:
    """The ``check`` report of one document, printed or serialized."""
    verdict = audited.verdict
    report: dict = {"form": kind}
    if audited.reciprocal is not None:
        report["reciprocal_shape"] = audited.reciprocal.value
        report["reciprocal_A"] = [payload.A1, payload.A2, payload.A3]
    report["verdict"] = verdict.kind
    report["reason"] = verdict.reason.value if verdict.reason else None
    report["diagnostics"] = dict(verdict.diagnostics)
    report["eigenvalues"] = audited.eigenvalues
    report["flat_portions"] = audited.flats
    report["commutant_dim"] = audited.commutant_dim
    if verdict.ellipses is not None:
        report["ellipses"] = list(verdict.ellipses)
        report["hull_hausdorff"] = audited.hull_gap
        report["diameter"] = audited.diameter
    if audited.factorization is not None:
        report["factorization_residual"] = audited.factorization
    report["consistency_failures"] = audited.failures
    return report


def _print_check_report(report: dict) -> None:
    print(f"form: {report['form']}")
    if "reciprocal_shape" in report:
        a1, a2, a3 = report["reciprocal_A"]
        print(
            f"reciprocal classification: {report['reciprocal_shape']}"
            f"  (A1={a1:.12g}, A2={a2:.12g}, A3={a3:.12g})"
        )
    print(f"verdict: {report['verdict']}")
    if report["reason"]:
        print(f"reason: {report['reason']}")
    diag = report["diagnostics"]
    if "theta" in diag:
        print(f"theta: {diag['theta']:.15g}")
    if "mu" in diag:
        print(f"mu: {diag['mu']:.15g}")
    if "special_t_norm" in diag:
        print(f"|T| (normalized): {diag['special_t_norm']:.6e}")
    for i, e in enumerate(report.get("ellipses", []), 1):
        print(
            f"ellipse {i}: center {_cformat(e.center)}, "
            f"semi-axes ({e.semi_major:.12g}, {e.semi_minor:.12g}), "
            f"tilt {e.tilt:.12g}"
        )
    for i, f in enumerate(report["flat_portions"], 1):
        print(
            f"flat {i}: direction {_cformat(f.direction, 6)}, "
            f"length {f.length:.12g}"
        )
    print(f"commutant dimension: {report['commutant_dim']}")
    if "hull_hausdorff" in report:
        print(
            f"hull/oracle Hausdorff: {report['hull_hausdorff']:.3e} "
            f"(diameter {report['diameter']:.6g})"
        )
    for msg in report["consistency_failures"]:
        print(f"CONSISTENCY FAILURE: {msg}")


def cmd_check(args) -> int:
    _require_samples(args.samples, nrcore.FLAT_MIN_SAMPLES)
    docs, batch = _load_documents(args.input)
    parsed = [parse_matrix_spec(doc) for doc in docs]
    reports = _audited([payload for _, payload in parsed], args.samples)
    worst = EXIT_POSITIVE
    outputs = []
    for (kind, payload), audited in zip(parsed, reports):
        outputs.append(_report(kind, payload, audited))
        worst = max(worst, _exit_code(not audited.failures, audited.verdict.bielliptical))
    if args.format == "json":
        print(json.dumps(_jsonify(outputs if batch else outputs[0]), indent=2))
    else:
        for i, report in enumerate(outputs):
            if i:
                print("-" * 60)
            _print_check_report(report)
    return worst


def _boundary_csv(boundary: nrcore.Boundary) -> str:
    # .tolist() gives Python floats, whose repr is the plain shortest form;
    # support_value is W(M)'s: W(M0)'s plus Re(e^{-i theta} origin).
    cos_sin, origin = nrcore._direction_grid(len(boundary))[1], boundary.origin
    columns = (boundary.theta, boundary.points.real, boundary.points.imag,
               boundary.support + cos_sin @ [origin.real, origin.imag], boundary.gap)
    lines = ["theta,re,im,support_value,gap"]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def _boundary_svg(points, audited: verify.AuditReport | None = None) -> str:
    pts = points.tolist()
    xs = [p.real for p in pts]
    ys = [p.imag for p in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    # A range that is one point gets a unit box around it.
    span = max(hi_x - lo_x, hi_y - lo_y) or 1.0
    margin = 0.05 * span
    width = hi_x - lo_x + 2 * margin
    height = hi_y - lo_y + 2 * margin
    # SVG y grows downward, so all coordinates are emitted with y negated,
    # and at round-trip precision (the repr of a Python float).
    x, y = lo_x - margin, -(hi_y + margin)
    stroke = max(width, height) / 400.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x!r} {y!r} {width!r} '
        f'{height!r}" width="640" height="640">',
        f'<rect x="{x!r}" y="{y!r}" width="{width!r}" height="{height!r}" fill="white"/>',
    ]
    poly = " ".join(f"{p.real!r},{-p.imag!r}" for p in pts)
    parts.append(
        f'<polygon points="{poly}" fill="none" stroke="#1f77b4" '
        f'stroke-width="{stroke!r}"/>'
    )
    if audited is not None:
        for e in audited.verdict.ellipses or ():
            parts.append(
                f'<ellipse cx="0" cy="0" rx="{e.semi_major!r}" ry="{e.semi_minor!r}" '
                f'transform="translate({e.center.real!r},{-e.center.imag!r}) '
                f'rotate({-math.degrees(e.tilt)!r})" fill="none" stroke="#d62728" '
                f'stroke-width="{stroke!r}" stroke-dasharray="{2 * stroke!r}"/>'
            )
        for f in audited.flats:
            a, b = f.endpoints
            parts.append(
                f'<line x1="{a.real!r}" y1="{-a.imag!r}" '
                f'x2="{b.real!r}" y2="{-b.imag!r}" stroke="#2ca02c" '
                f'stroke-width="{1.5 * stroke!r}"/>'
            )
        for ev in audited.eigenvalues:
            parts.append(
                f'<circle cx="{ev.real!r}" cy="{-ev.imag!r}" '
                f'r="{2 * stroke!r}" fill="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_boundary(args) -> int:
    _require_samples(args.samples, 64)
    docs, _ = _load_documents(args.input)
    if len(docs) != 1:
        raise InputError("boundary export expects a single matrix document")
    kind, payload = parse_matrix_spec(docs[0])
    # A raw matrix without scalar diagonal blocks is drawn with no overlay.
    audited = None
    if args.format == "svg":
        audited = verify.check_document(payload, max(args.samples, nrcore.FLAT_MIN_SAMPLES))
    matrix = payload if kind == "raw" else forms.as_block(payload).assemble()
    boundary = nrcore.boundary_support(matrix, args.samples)
    if args.format == "csv":
        text = _boundary_csv(boundary)
    else:
        text = _boundary_svg(boundary.points, audited)
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_POSITIVE


def _parse_cli_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        values = []
    if len(values) == 1:
        return _parse_complex(values[0])
    if len(values) == 2:
        return _parse_complex(values)
    raise InputError(f"expected 're' or 're,im', got {text!r}")


def cmd_solve_b(args) -> int:
    u = _parse_real(args.u, "u")
    v = _parse_real(args.v, "v")
    b1 = _parse_cli_complex(args.b1)
    b2 = _parse_cli_complex(args.b2)
    try:
        b = criteria.solve_b(u, v, b1, b2)
    except criteria.AlphaZeroError:
        print(
            "error: diagonal parameter is zero, so b is unconstrained; "
            "a zero-diagonal matrix is bi-elliptical iff b != 0 and either "
            "Im b1 = Im b2 with |b1| = |b2|, or Re b1 = Re b2 = 0",
            file=sys.stderr,
        )
        return EXIT_INPUT
    if b is None:
        print("none")
        return EXIT_NEGATIVE
    print(f"b = {b:.15g}")
    return EXIT_POSITIVE


def cmd_reciprocal(args) -> int:
    rec = _reciprocal_form(args.a1, args.a2, args.a3)
    shape = criteria.reciprocal_classify(rec)
    print(f"A1 = {rec.A1:.15g}, A2 = {rec.A2:.15g}, A3 = {rec.A3:.15g}")
    print(f"classification: {shape.value}")
    return EXIT_POSITIVE if shape is criteria.ReciprocalShape.BI_ELLIPTICAL else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    _require_samples(args.samples, nrcore.FLAT_MIN_SAMPLES)
    docs, _ = _load_documents(args.input)
    if len(docs) != 1:
        raise InputError("verify expects a single matrix document")
    _, payload = parse_matrix_spec(docs[0])
    audited, = _audited([payload], args.samples)
    checks = verify.verify_checks(audited)
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    print(f"verdict: {audited.verdict.kind}")
    return _exit_code(all(check.passed for check in checks), audited.verdict.bielliptical)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``birange`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="birange",
        description="Decide whether structured 4x4 matrices have a "
        "bi-elliptical numerical range; export and verify boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="classify a matrix")
    boundary = sub.add_parser("boundary", help="export boundary samples")
    solve_b = sub.add_parser("solve-b", help="solve for the coupling entry b")
    reciprocal = sub.add_parser("reciprocal", help="classify a reciprocal matrix")
    verify_ = sub.add_parser("verify", help="run the oracle suite")
    for p in (check, boundary, verify_):
        p.add_argument("input", nargs="?", default="-",
                       help="JSON matrix document (default: stdin)")
        p.add_argument("--samples", type=int, default=nrcore.DEFAULT_SAMPLES,
                       help="oracle support directions (a multiple of 4)")
    check.add_argument("--format", choices=("text", "json"), default="text")
    boundary.add_argument("--format", choices=("csv", "svg"), default="csv")
    boundary.add_argument("--output", default=None, help="output path")
    solve_b.add_argument("u", type=float)
    solve_b.add_argument("v", type=float)
    solve_b.add_argument("b1", help="complex as 're' or 're,im'")
    solve_b.add_argument("b2", help="complex as 're' or 're,im'")
    reciprocal.add_argument("a1", type=float)
    reciprocal.add_argument("a2", type=float)
    reciprocal.add_argument("a3", type=float)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a replaced ``cmd_*`` attribute is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    out = io.StringIO()
    try:
        # The command's output is written once it has its exit code, which
        # a closed pipe must not change.
        with contextlib.redirect_stdout(out):
            code = command(args)
    except (InputError, forms.NonPositiveEntryError, forms.ScaleRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Last resort: an uncaught exception must not exit 1, which means
        # "not bi-elliptical".  One line names the exception and where it
        # was raised.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"error: internal failure: {type(exc).__name__} at "
            f"{os.path.basename(where.filename)}:{where.lineno} in "
            f"{where.name}: {exc}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, which ends the output.  Standard
        # output then points at the null device, so the interpreter's final
        # flush of what is left finds no broken pipe either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
