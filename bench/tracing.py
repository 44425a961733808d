"""Span recording from outside the program.

The tracer replaces each layer function with a wrapper that records a span
(name, start, end, parent span, op id) around every call.  It patches every
``birange`` module attribute bound to that function, since modules import
names from each other (``spectrum`` is looked up in both ``nrcore`` and
``criteria``, for instance).  LAPACK entry points and ``CMatrix``
construction only get counted.  Spans stay in memory; self time is computed
from them after the run.  The counters that look at a layer's result run
inside a span of their own under the caller, so their time counts as nobody's
self time.  Every patched attribute is restored on exit, also when an op
raised.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import operator
import statistics
import sys
import time

import numpy as np

# Layer name -> (defining module, function name).  Several functions may
# share one layer name; their spans are pooled.
LAYERS = (
    ("criteria.find_theta", "birange.criteria", "find_theta"),
    ("criteria.check_general", "birange.criteria", "check_general"),
    ("criteria.check_special", "birange.criteria", "check_special"),
    ("criteria.criterion_T", "birange.criteria", "criterion_T"),
    ("criteria.ellipse_geometry", "birange.criteria", "ellipse_geometry"),
    ("criteria.ellipse_geometry", "birange.criteria", "ellipse_pair_params"),
    ("forms.reduce_to_special", "birange.forms", "reduce_to_special"),
    ("linalg.hermitian_eig4", "birange.linalg", "hermitian_eig4"),
    ("nrcore.spectrum", "birange.nrcore", "spectrum"),
    ("nrcore.boundary_support", "birange.nrcore", "boundary_support"),
    ("nrcore.flat_portions", "birange.nrcore", "flat_portions"),
    ("nrcore.pencil_eigs", "birange.nrcore", "pencil_eigs"),
    ("nrcore.generating_poly", "birange.nrcore", "generating_poly"),
    ("verify.factorization_residual", "birange.verify", "factorization_residual"),
    ("verify.hull_boundary", "birange.verify", "hull_boundary"),
    ("verify.compare_boundaries", "birange.verify", "compare_boundaries"),
    ("verify.commutant_dim", "birange.verify", "commutant_dim"),
    ("cli.parse_matrix_spec", "birange.cli", "parse_matrix_spec"),
    ("cli.cmd_check", "birange.cli", "cmd_check"),
    ("cli.cmd_verify", "birange.cli", "cmd_verify"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

LAPACK = ("eigh", "eigvalsh", "svd")
REASONS = (
    "BNormal", "TNonzero", "NoTheta", "ProductNormal", "ZeroMultiple",
    "BiElliptical",
)
_GAP = operator.attrgetter("multiplicity_gap")
ROOT = "op"
# Spans of the tracer's own result counters.
OBSERVE = "trace.observe"


def _observe_find_theta(counts, args, result):
    counts["criteria.find_theta.found"] += result is not None


def _observe_check_general(counts, args, result):
    reason = result.reason.value if result.reason is not None else "BiElliptical"
    counts[f"criteria.reason.{reason}"] += 1


def _observe_boundary_support(counts, args, result):
    # The oracle's own threshold and matrix conversion, so the count follows
    # them if they change.
    nrcore = sys.modules["birange.nrcore"]
    scale = float(np.linalg.norm(nrcore._as_ndarray(args[0])))
    tol = nrcore._DEGENERATE_REL * max(scale, 1e-300)
    gaps = np.fromiter(map(_GAP, result), dtype=float, count=len(result))
    counts["nrcore.boundary_support.degenerate_directions"] += int(
        np.count_nonzero(gaps <= tol)
    )


def _observe_flat_portions(counts, args, result):
    counts["nrcore.flat_portions.flats_found"] += len(result)


OBSERVERS = {
    "find_theta": _observe_find_theta,
    "check_general": _observe_check_general,
    "boundary_support": _observe_boundary_support,
    "flat_portions": _observe_flat_portions,
}

COUNTS = (
    "criteria.find_theta.found",
    "nrcore.boundary_support.degenerate_directions",
    "nrcore.flat_portions.flats_found",
    "linalg.cmatrix_new",
    *(f"lapack.{name}_calls" for name in LAPACK),
    *(f"criteria.reason.{r}" for r in REASONS),
)


def _program_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "birange" or n.startswith("birange."))]


def reachable(wrappers) -> int:
    """How many patch sites still hold one of ``wrappers``."""
    cmatrix = importlib.import_module("birange.linalg").CMatrix
    found = sum(val in wrappers for mod in _program_modules()
                for val in vars(mod).values() if callable(val))
    found += sum(getattr(np.linalg, name) in wrappers for name in LAPACK)
    return found + (cmatrix.__init__ in wrappers)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, op_id)

    def _span_wrapper(self, name, fn, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if observe is not None:
                observe(counts, args, result)
                spans.append((OBSERVE, end, clock(), parent, self._op))
            return result

        return traced

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site; restore all of them on exit."""
        modules = _program_modules()
        try:
            for name, mod_name, attr in LAYERS:
                fn = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._span_wrapper(name, fn, OBSERVERS.get(attr))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, key, wrapper)
            for name in LAPACK:
                self._set(np.linalg, name,
                          self._count_wrapper(f"lapack.{name}_calls", getattr(np.linalg, name)))
            cmatrix = importlib.import_module("birange.linalg").CMatrix
            self._set(cmatrix, "__init__",
                      self._count_wrapper("linalg.cmatrix_new", cmatrix.__init__))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrappers(self) -> set:
        """The wrapper functions currently patched in."""
        return {getattr(owner, attr) for owner, attr, _ in self._patches}

    # -- analysis --------------------------------------------------------
    def summary(self, wall_ns: int, ops: int) -> dict:
        """Per-layer calls per op, median self and inclusive ms per call, and
        share of traced wall time; every count per op; and the share of
        traced wall time spent in the result counters."""
        child = [0] * len(self.spans)
        observe = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            if name == OBSERVE:
                observe += end - start
        selfs: dict[str, list[int]] = {name: [] for name in (ROOT, *LAYER_NAMES)}
        incl: dict[str, list[int]] = {name: [] for name in selfs}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            if name == OBSERVE:
                continue
            selfs[name].append(end - start - child[k])
            incl[name].append(end - start)
        layers = {}
        for name in selfs:
            s = selfs[name]
            layers[name] = {
                "calls": len(s) / ops,
                "self_ms": statistics.median(s) / 1e6 if s else 0.0,
                "incl_ms": statistics.median(incl[name]) / 1e6 if s else 0.0,
                "share": sum(s) / wall_ns,
            }
        counts = {key: val / ops for key, val in self.counts.items()}
        calls = len(selfs["criteria.find_theta"])
        counts["criteria.find_theta.found_ratio"] = (
            self.counts["criteria.find_theta.found"] / calls if calls else 0.0
        )
        return {"layers": layers, "counts": counts, "observe_share": observe / wall_ns}
