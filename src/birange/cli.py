"""Command-line front end: classification, boundary export, verification.

Input is a JSON document describing one matrix (or an array of them for
batch runs).  Complex numbers are 2-element arrays ``[re, im]``; plain
numbers are accepted where a real value is meant.

Numbers must be finite with magnitude at most 1e36.

Exit codes: 0 positive verdict, 1 negative verdict, 2 input or usage error
(including non-finite or out-of-range numbers), 3 internal failure (an
oracle disagreed with a verdict, or an exception escaped; either signals a
bug).  No exception leaves ``main`` with exit 1, which means "not
bi-elliptical".
"""

from __future__ import annotations

import argparse
import dataclasses
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

_BLOCK_DETECT_REL = 1e-10
# Largest accepted magnitude of a matrix entry (real and imaginary parts
# separately).  The direction solve squares Gram entries that are quartic in
# the matrix, and degree-8 quantities overflow double precision once entries
# pass about 1e38.
_MAX_MAGNITUDE = 1e36


class InputError(ValueError):
    pass


def _in_range(x: float) -> bool:
    """Finite and at most ``_MAX_MAGNITUDE`` in absolute value."""
    return abs(x) <= _MAX_MAGNITUDE


def _parse_complex(value) -> complex:
    if isinstance(value, (int, float)):
        parts = (value, 0.0)
    elif (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) for x in value)
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
    if not isinstance(value, (int, float)):
        raise InputError(f"field {name!r} must be a real number")
    if not _in_range(value):
        raise InputError(
            f"field {name!r} must be finite with magnitude at most "
            f"{_MAX_MAGNITUDE:g}"
        )
    return float(value)


def _reciprocal_form(a1: float, a2: float, a3: float) -> forms.ReciprocalForm:
    """Validated reciprocal form; its entries include 1/a1, 1/a2, 1/a3."""
    try:
        rec = forms.ReciprocalForm(a1=a1, a2=a2, a3=a3)
    except forms.NonPositiveEntryError as exc:
        raise InputError(str(exc)) from exc
    for a in (rec.a1, rec.a2, rec.a3):
        if not (_in_range(a) and _in_range(1.0 / a)):
            raise InputError(
                f"reciprocal entries must lie in [{1 / _MAX_MAGNITUDE:g}, "
                f"{_MAX_MAGNITUDE:g}]"
            )
    return rec


def _parse_cmat(value, name: str, size: int) -> CMatrix:
    if not isinstance(value, list) or len(value) != size:
        raise InputError(f"field {name!r} must be a {size}x{size} grid")
    rows = []
    for row in value:
        if not isinstance(row, list) or len(row) != size:
            raise InputError(f"field {name!r} must be a {size}x{size} grid")
        rows.append(tuple(_parse_complex(x) for x in row))
    return CMatrix(rows)


def _require(doc: dict, *names: str):
    for name in names:
        if name not in doc:
            raise InputError(f"missing field {name!r}")


def detect_block_structure(m: CMatrix) -> forms.BlockForm | None:
    """Split a raw 4x4 matrix into block form if its diagonal blocks are
    scalar within 1e-10 of the matrix norm."""
    fro = m.frobenius()
    tol = _BLOCK_DETECT_REL * max(fro, 1e-300)
    alpha = 0.5 * (m[0, 0] + m[1, 1])
    beta = 0.5 * (m[2, 2] + m[3, 3])
    devs = (
        abs(m[0, 0] - alpha), abs(m[1, 1] - alpha), abs(m[0, 1]), abs(m[1, 0]),
        abs(m[2, 2] - beta), abs(m[3, 3] - beta), abs(m[2, 3]), abs(m[3, 2]),
    )
    if max(devs) > tol:
        return None
    c = CMatrix(((m[0, 2], m[0, 3]), (m[1, 2], m[1, 3])))
    d = CMatrix(((m[2, 0], m[2, 1]), (m[3, 0], m[3, 1])))
    return forms.normalize_block(alpha, beta, c, d)


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


def _load_documents(path: str) -> list[dict]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(data, dict):
        return [data]
    if isinstance(data, list) and all(isinstance(d, dict) for d in data):
        return data
    raise InputError("input must be a JSON object or an array of objects")


def _block_form_of(kind: str, payload) -> tuple[forms.BlockForm, CMatrix]:
    """Block form and assembled (shift-included) matrix for a parsed spec."""
    if kind == "raw":
        bf = detect_block_structure(payload)
        if bf is None:
            raise InputError(
                "matrix lacks scalar 2x2 diagonal blocks; only the boundary "
                "subcommand applies to unstructured matrices"
            )
        return bf, payload
    if kind == "block":
        return payload, payload.assemble()
    if kind == "special":
        bf = payload.to_block()
        return bf, bf.assemble()
    if kind == "reciprocal":
        bf = forms.from_reciprocal(payload)
        return bf, bf.assemble()
    raise InputError(f"unsupported form {kind!r}")


def _cformat(z: complex, digits: int = 12) -> str:
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}i"


def _jsonify(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if dataclasses.is_dataclass(obj):
        return _jsonify(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _audit(kind: str, payload, samples: int):
    """Classify a parsed document and audit the verdict.

    Returns the block form, the reciprocal shape (None unless the document
    is reciprocal), the verdict and the :class:`verify.AuditReport`.
    """
    if samples < nrcore.FLAT_MIN_SAMPLES:
        raise InputError(
            f"--samples must be at least {nrcore.FLAT_MIN_SAMPLES} for the "
            "flat-portion oracle"
        )
    bf, matrix = _block_form_of(kind, payload)
    shape = criteria.reciprocal_classify(payload) if kind == "reciprocal" else None
    verdict = criteria.check_general(bf)
    audited = verify.audit(bf, verdict, samples, matrix=matrix, reciprocal=shape)
    return bf, shape, verdict, audited


def _report(kind: str, payload, shape, verdict, audited) -> dict:
    """The ``check`` report of one document, printed or serialized."""
    report: dict = {"form": kind}
    if shape is not None:
        report["reciprocal_shape"] = shape.value
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
    if "sigma_sum_theta" in diag:
        print(
            f"sigma1+sigma2 at theta: {_cformat(diag['sigma_sum_theta'])}"
            f"  |.| = {abs(diag['sigma_sum_theta']):.15g}"
        )
    if "s_diff" in diag:
        print(f"s1-s2: {diag['s_diff']:.15g}")
    if "sqrt_det_im" in diag:
        print(f"sqrt(det Im(e^-i theta A)): {diag['sqrt_det_im']:.15g}")
    if "gen_lhs" in diag:
        print(
            f"determinant identity: lhs={diag['gen_lhs']:.15g} "
            f"rhs={diag['gen_rhs']:.15g} residual={diag['gen_residual']:.3e}"
        )
    t_norm = diag.get("special_t_norm", diag.get("t_norm"))
    if t_norm is not None and not (isinstance(t_norm, float) and math.isnan(t_norm)):
        print(f"|T| (normalized): {t_norm:.6e}")
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
    docs = _load_documents(args.input)
    worst = EXIT_POSITIVE
    outputs = []
    for doc in docs:
        kind, payload = parse_matrix_spec(doc)
        _, shape, verdict, audited = _audit(kind, payload, args.samples)
        report = _report(kind, payload, shape, verdict, audited)
        outputs.append(report)
        if report["consistency_failures"]:
            worst = max(worst, EXIT_INTERNAL)
        elif not verdict.bielliptical:
            worst = max(worst, EXIT_NEGATIVE)
    if args.format == "json":
        payload_out = outputs if len(outputs) > 1 else outputs[0]
        print(json.dumps(_jsonify(payload_out), indent=2))
    else:
        for i, report in enumerate(outputs):
            if i:
                print("-" * 60)
            _print_check_report(report)
    return worst


def _boundary_csv(samples) -> str:
    lines = ["theta,re,im,support_value,gap"]
    for s in samples:
        lines.append(
            f"{s.theta!r},{s.point.real!r},{s.point.imag!r},"
            f"{s.support_value!r},{s.multiplicity_gap!r}"
        )
    return "\n".join(lines) + "\n"


def _boundary_svg(samples, report: dict | None) -> str:
    pts = [s.point for s in samples]
    xs = [p.real for p in pts]
    ys = [p.imag for p in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    margin = 0.05 * span
    width = hi_x - lo_x + 2 * margin
    height = hi_y - lo_y + 2 * margin
    # SVG y grows downward, so all coordinates are emitted with y negated.
    view = f"{lo_x - margin:.6g} {-(hi_y + margin):.6g} {width:.6g} {height:.6g}"
    stroke = max(width, height) / 400.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="640" height="640">',
        f'<rect x="{lo_x - margin:.6g}" y="{-(hi_y + margin):.6g}" '
        f'width="{width:.6g}" height="{height:.6g}" fill="white"/>',
    ]
    poly = " ".join(f"{p.real:.9g},{-p.imag:.9g}" for p in pts)
    parts.append(
        f'<polygon points="{poly}" fill="none" stroke="#1f77b4" '
        f'stroke-width="{stroke:.6g}"/>'
    )
    if report:
        for e in report.get("ellipses", []):
            deg = -math.degrees(e.tilt)
            parts.append(
                f'<ellipse cx="0" cy="0" rx="{e.semi_major:.9g}" '
                f'ry="{e.semi_minor:.9g}" '
                f'transform="translate({e.center.real:.9g},{-e.center.imag:.9g}) '
                f'rotate({deg:.9g})" fill="none" stroke="#d62728" '
                f'stroke-width="{stroke:.6g}" stroke-dasharray="{2 * stroke:.6g}"/>'
            )
        for f in report.get("flat_portions", []):
            a, b = f.endpoints
            parts.append(
                f'<line x1="{a.real:.9g}" y1="{-a.imag:.9g}" '
                f'x2="{b.real:.9g}" y2="{-b.imag:.9g}" stroke="#2ca02c" '
                f'stroke-width="{1.5 * stroke:.6g}"/>'
            )
        for ev in report.get("eigenvalues", []):
            parts.append(
                f'<circle cx="{ev.real:.9g}" cy="{-ev.imag:.9g}" '
                f'r="{2 * stroke:.6g}" fill="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_boundary(args) -> int:
    if args.samples < 64:
        raise InputError("--samples must be at least 64")
    docs = _load_documents(args.input)
    if len(docs) != 1:
        raise InputError("boundary export expects a single matrix document")
    kind, payload = parse_matrix_spec(docs[0])
    if kind == "raw":
        matrix = payload
        structured = detect_block_structure(payload) is not None
    else:
        _, matrix = _block_form_of(kind, payload)
        structured = True
    report = None
    if args.format == "svg" and structured:
        _, shape, verdict, audited = _audit(
            kind, payload, max(args.samples, nrcore.FLAT_MIN_SAMPLES)
        )
        report = _report(kind, payload, shape, verdict, audited)
    samples = nrcore.boundary_support(matrix, args.samples)
    if args.format == "csv":
        text = _boundary_csv(samples)
    else:
        text = _boundary_svg(samples, report)
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
    if shape is criteria.ReciprocalShape.BI_ELLIPTICAL:
        return EXIT_POSITIVE
    return EXIT_NEGATIVE


def cmd_verify(args) -> int:
    docs = _load_documents(args.input)
    if len(docs) != 1:
        raise InputError("verify expects a single matrix document")
    kind, payload = parse_matrix_spec(docs[0])
    seed = int(os.environ.get("BIRANGE_SEED", "42"))
    bf, _, verdict, audited = _audit(kind, payload, args.samples)
    checks = verify.verify_checks(bf, verdict, audited, seed)
    for check in checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    print(f"verdict: {verdict.kind}")
    if not all(check.passed for check in checks):
        return EXIT_INTERNAL
    return EXIT_POSITIVE if verdict.bielliptical else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birange",
        description="Decide whether structured 4x4 matrices have a "
        "bi-elliptical numerical range; export and verify boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="?", default="-",
                       help="JSON matrix document (default: stdin)")
        p.add_argument("--samples", type=int, default=2048,
                       help="support directions for boundary oracles")

    p_check = sub.add_parser("check", help="classify a matrix")
    common(p_check)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_boundary = sub.add_parser("boundary", help="export boundary samples")
    common(p_boundary)
    p_boundary.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_boundary.add_argument("--output", default=None, help="output path")
    p_boundary.set_defaults(func=cmd_boundary)

    p_solve = sub.add_parser("solve-b", help="solve for the coupling entry b")
    p_solve.add_argument("u", type=float)
    p_solve.add_argument("v", type=float)
    p_solve.add_argument("b1", help="complex as 're' or 're,im'")
    p_solve.add_argument("b2", help="complex as 're' or 're,im'")
    p_solve.set_defaults(func=cmd_solve_b)

    p_rec = sub.add_parser("reciprocal", help="classify a reciprocal matrix")
    p_rec.add_argument("a1", type=float)
    p_rec.add_argument("a2", type=float)
    p_rec.add_argument("a3", type=float)
    p_rec.set_defaults(func=cmd_reciprocal)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
